package harness

import (
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/world"
)

// TestClusterBootstrapMatchesWorld pins the claim cross-validation rests on:
// for one world.Config, the cluster harness hands each real node the friends
// list and per-AU reference lists world.New gives the simulated peer with
// the same identity.
func TestClusterBootstrapMatchesWorld(t *testing.T) {
	cfg := world.Default()
	demoOverride(time.Second)(&cfg)
	// More peers than either list holds and two AUs, so the sampling order
	// (all friends, then peer by peer, AU by AU) matters.
	cfg.Peers, cfg.AUs, cfg.AUSize = 9, 2, 64<<10
	if cfg.Friends >= cfg.Peers-1 || cfg.Protocol.RefListTarget >= cfg.Peers-1 {
		t.Fatal("every list would hold everyone; the comparison would prove nothing")
	}

	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCluster(clusterSpecFor(cfg, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sorted := func(l []ids.PeerID) []ids.PeerID {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		return l
	}
	if len(c.Members) != len(w.Peers) {
		t.Fatalf("cluster has %d members, world %d peers", len(c.Members), len(w.Peers))
	}
	for i, m := range c.Members {
		sim, real := w.Peers[i], m.Node.Peer()
		if sim.ID() != real.ID() {
			t.Fatalf("member %d is peer %v, world peer %v", i, real.ID(), sim.ID())
		}
		if got, want := real.Friends(), sim.Friends(); !reflect.DeepEqual(got, want) {
			t.Errorf("peer %v friends = %v, world has %v", sim.ID(), got, want)
		}
		if !reflect.DeepEqual(real.AUs(), sim.AUs()) {
			t.Fatalf("peer %v preserves %v, world peer %v", sim.ID(), real.AUs(), sim.AUs())
		}
		for _, au := range sim.AUs() {
			got, want := sorted(real.ReferenceList(au)), sorted(sim.ReferenceList(au))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("peer %v AU %d reference list = %v, world has %v", sim.ID(), au, got, want)
			}
		}
	}
}

// TestBuildClusterIngestsBeforeAnyClock: a node's protocol clock starts at
// node.New, so every member's store must be ingested before the first node
// is built, or the early nodes start ahead of the others by the later
// ingests. The last write into any member's store directory must come
// before the earliest Epoch. A file's mtime never reads later than the
// wall clock at its write, so the check cannot pass by clock granularity.
func TestBuildClusterIngestsBeforeAnyClock(t *testing.T) {
	// Big enough that the ingests after one member's take far longer than
	// the file system's timestamp granularity.
	spec := ClusterSpec{Members: make([]MemberSpec, 3)}
	for id := range content.AUID(2) {
		spec.AUs = append(spec.AUs, content.AUSpec{ID: id + 1, Name: "au", Size: 8 << 20, BlockSize: 32 << 10})
	}
	for i := range spec.Members {
		spec.Members[i] = MemberSpec{
			Dir:    filepath.Join(t.TempDir(), "data"),
			Config: node.Config{Protocol: demoProtocolConfig(), Costs: effort.DemoCostModel()},
		}
	}
	c, err := BuildCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var lastWrite time.Time
	for _, ms := range spec.Members {
		err := filepath.WalkDir(ms.Dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			fi, err := d.Info()
			if err == nil && fi.ModTime().After(lastWrite) {
				lastWrite = fi.ModTime()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range c.Members {
		if epoch := time.Unix(0, int64(m.Node.Epoch())); !lastWrite.Before(epoch) {
			t.Errorf("node %d's clock starts at %v, %v before the last ingest write", m.ID, epoch.Format(time.StampMicro), lastWrite.Sub(epoch))
		}
	}
}

// TestBuildClusterClosesWhatItOpened forces the failure the fleet used to
// leak on — AddAU failing (a catalogue naming one AU twice) after the
// member's store is open and its node built — and a failure on a later
// member (an unusable protocol config) after earlier ones built. The
// builder's one error path must close everything either call opened: no
// store committer goroutine may outlive it.
func TestBuildClusterClosesWhatItOpened(t *testing.T) {
	committers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "store.(*committer).run")
	}
	before := committers()
	au := content.AUSpec{ID: 1, Name: "au-twice", Size: 64 << 10, BlockSize: 32 << 10}
	durable := func(aus ...content.AUSpec) ClusterSpec {
		spec := ClusterSpec{AUs: aus, Members: make([]MemberSpec, 3), SeedEven: true}
		for i := range spec.Members {
			spec.Members[i] = MemberSpec{
				Dir:    filepath.Join(t.TempDir(), "data"),
				Config: node.Config{Protocol: demoProtocolConfig(), Costs: effort.DemoCostModel()},
			}
		}
		return spec
	}

	if _, err := BuildCluster(durable(au, au)); err == nil || !strings.Contains(err.Error(), "duplicate AU") {
		t.Fatalf("BuildCluster with a repeated AU: err = %v, want AddAU's duplicate-AU error", err)
	}
	lastBad := durable(au)
	lastBad.Members[2].Config.Protocol.Quorum = 0
	if _, err := BuildCluster(lastBad); err == nil {
		t.Fatal("BuildCluster accepted a member with quorum 0")
	}
	if !WaitFor(5*time.Second, 10*time.Millisecond, func() bool { return committers() <= before }) {
		t.Errorf("%d store committer goroutines outlive two failed builds (%d before them)", committers(), before)
	}
}
