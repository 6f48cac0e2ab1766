package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/store"
	"lockss/internal/telemetry"
)

// clusterShape sizes a loopback cluster of real nodes.
type clusterShape struct {
	nodes     int
	aus       int
	auSize    int64
	blockSize int64
	quorum    int
	inner     int
	interval  time.Duration
	scrubPace time.Duration
}

// c2id is the identity of the node at index i.
func c2id(i int) ids.PeerID { return ids.PeerID(i + 1) }

// attackerBase is the first identity the flood claims; loyal nodes are
// 1..nodes, so nothing at or above it is ever in an address book.
const attackerBase ids.PeerID = 10000

// clusterMBF is demo-size proof effort: the real memory-bound function,
// sized as internal/fleet sizes it so eight provers share two cores.
var clusterMBF = effort.MBFParams{TableWords: 1 << 12, Steps: 1 << 10, Checkpoints: 8, VerifySegments: 2, Seed: 7}

const clusterEffortUnit effort.Seconds = 0.05

// protocolConfig scales the protocol's timeouts to the poll interval the way
// internal/fleet does, with a fixed quorum.
func (s clusterShape) protocolConfig() protocol.Config {
	iv := s.interval
	cfg := protocol.DefaultConfig()
	cfg.PollInterval = iv
	cfg.VoteWindow = iv * 7 / 15
	cfg.AckTimeout = iv / 6
	cfg.ProofTimeout = iv / 10
	cfg.VoteSlack = iv / 5
	cfg.ReceiptSlack = iv / 3
	cfg.RepairTimeout = iv * 4 / 15
	cfg.Refractory = iv * 2 / 15
	cfg.GradeDecay = time.Hour
	cfg.FrivolousRepairProb = 0
	cfg.Quorum = s.quorum
	cfg.InnerCircle = s.inner
	cfg.MaxDisagree = max(1, (s.quorum-1)/2)
	cfg.OuterCircle = 2
	cfg.Nominations = 3
	cfg.RefListTarget = max(s.inner, 2*s.quorum)
	cfg.RefListMax = cfg.RefListTarget + 5
	cfg.ConsiderBurst = 64
	cfg.BlockSize = s.blockSize
	return cfg
}

func clusterCosts() effort.CostModel {
	m := effort.DefaultCostModel()
	m.HashBytesPerSec = 64 << 30
	m.SessionSetup = 1e-6
	m.ScheduleCheck = 1e-6
	m.ReceiptCheck = 1e-6
	return m
}

func (s clusterShape) auSpec(i int) content.AUSpec {
	return content.AUSpec{
		ID:        content.AUID(i + 1),
		Name:      fmt.Sprintf("journal-%04d", 2000+i),
		Size:      s.auSize,
		BlockSize: s.blockSize,
	}
}

// Phases of a cluster run; the observer counts polls per phase.
const (
	phaseWarmup = iota
	phaseQuiet  // cluster-audit's window, cluster-flood's quiet phase
	phaseFlood
	phaseDrain
	numPhases
)

type rotKey struct {
	node  ids.PeerID
	au    content.AUID
	block int
}

// clusterObserver is the benchmark's node.Config.Observer, shared by every
// node: the narrowest public boundary at which polls conclude and repairs
// land. Each node calls it from its own actor loop, so it locks.
type clusterObserver struct {
	phase atomic.Int32
	// votesToAttackers counts votes supplied to a flood identity; the
	// admission defenses must keep it at zero.
	votesToAttackers atomic.Int64

	mu        sync.Mutex
	pollsOK   [numPhases]int
	pollsBad  [numPhases]int
	outcomes  map[string]int
	pollSecs  [numPhases][]float64 // durations of successful polls
	pending   map[rotKey]time.Time
	spans     map[rotKey]int
	repairSec []float64
	rec       *recorder
}

func (o *clusterObserver) PollConcluded(_ ids.PeerID, _ content.AUID, _ uint64, outcome protocol.Outcome, started, now sched.Time) {
	ph := o.phase.Load()
	o.mu.Lock()
	if outcome == protocol.OutcomeSuccess {
		o.pollsOK[ph]++
		o.pollSecs[ph] = append(o.pollSecs[ph], float64(now-started)/1e9)
	} else {
		o.pollsBad[ph]++
		o.outcomes[fmt.Sprintf("phase%d_%s", ph, outcome)]++
	}
	o.mu.Unlock()
}

func (o *clusterObserver) Alarm(ids.PeerID, content.AUID, uint64, sched.Time) {}

func (o *clusterObserver) RepairApplied(peer ids.PeerID, au content.AUID, _ uint64, block int, _ sched.Time) {
	key := rotKey{peer, au, block}
	o.mu.Lock()
	if at, ok := o.pending[key]; ok {
		o.repairSec = append(o.repairSec, time.Since(at).Seconds())
		delete(o.pending, key)
		o.rec.end(o.spans[key])
	}
	o.mu.Unlock()
}

func (o *clusterObserver) VoteSupplied(_, poller ids.PeerID, _ content.AUID, _ uint64, _ sched.Time) {
	if poller >= attackerBase {
		o.votesToAttackers.Add(1)
	}
}

// injected notes that key was rotted just now.
func (o *clusterObserver) injected(key rotKey, span int) {
	o.mu.Lock()
	o.pending[key] = time.Now()
	o.spans[key] = span
	o.mu.Unlock()
}

func (o *clusterObserver) unrepaired() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
}

// countingTap is the traced run's node.Config.Tap: inbound frames and bytes,
// and how many of them claimed a flood identity.
type countingTap struct {
	frames, bytes, junk atomic.Uint64
}

func (t *countingTap) MsgIn(from ids.PeerID, frame []byte, _ *protocol.Msg, _ sched.Time) {
	t.frames.Add(1)
	t.bytes.Add(uint64(len(frame)))
	if from >= attackerBase {
		t.junk.Add(1)
	}
}
func (t *countingTap) TimerFired(protocol.TimerID, sched.Time)      {}
func (t *countingTap) MsgOut(ids.PeerID, *protocol.Msg, sched.Time) {}
func (t *countingTap) DamageNoticed(content.AUID, int, sched.Time)  {}

// cluster is a running loopback cluster.
type cluster struct {
	shape  clusterShape
	nodes  []*node.Node
	stores []*store.Store
	dirs   []string
	obs    *clusterObserver
	tap    *countingTap // nil on an untraced run
}

// buildCluster ingests every node's AUs into a fresh durable store, builds
// and starts the nodes, and exchanges their loopback addresses. Its wall
// time is the cluster workloads' set-up.
func buildCluster(rc *runCtx, shape clusterShape, tag string) (c *cluster, err error) {
	c = &cluster{shape: shape, obs: &clusterObserver{
		pending: map[rotKey]time.Time{}, spans: map[rotKey]int{}, outcomes: map[string]int{}, rec: rc.rec,
	}}
	if rc.traced() {
		c.tap = &countingTap{}
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	span := rc.rec.start(0, "bench.buildCluster")
	defer rc.rec.end(span)
	for i := 0; i < shape.nodes; i++ {
		id := c2id(i)
		seed := rc.seed*1000 + uint64(i)
		dir := filepath.Join(rc.tmp, fmt.Sprintf("%s-node-%d", tag, id))
		var st *store.Store
		rc.rec.do(span, "store.Open", func() { st, err = store.Open(dir) })
		if err != nil {
			return c, err
		}
		c.stores = append(c.stores, st)
		c.dirs = append(c.dirs, dir)
		for a := 0; a < shape.aus; a++ {
			spec := shape.auSpec(a)
			rc.rec.do(span, "store.CreateFrom", func() {
				_, err = st.CreateFrom(spec, seed<<16|uint64(spec.ID), content.PublisherReader(spec))
			})
			if err != nil {
				return c, fmt.Errorf("node %d ingest AU %d: %w", id, spec.ID, err)
			}
		}
		cfg := node.Config{
			ID:           id,
			Listen:       "127.0.0.1:0",
			AddressBook:  map[ids.PeerID]string{},
			Protocol:     shape.protocolConfig(),
			Costs:        clusterCosts(),
			MBF:          clusterMBF,
			EffortUnit:   clusterEffortUnit,
			Seed:         seed,
			Observer:     c.obs,
			Store:        st,
			ScrubPace:    shape.scrubPace,
			ScrubWorkers: 1,
		}
		if c.tap != nil {
			cfg.Tap = c.tap
		}
		var n *node.Node
		rc.rec.do(span, "node.New", func() { n, err = node.New(cfg) })
		if err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, n)
		var refs []ids.PeerID
		for j := 0; j < shape.nodes; j++ {
			if j != i {
				refs = append(refs, c2id(j))
			}
		}
		for _, r := range st.Replicas() {
			if err := n.AddAU(r, refs); err != nil {
				return c, err
			}
			for _, p := range refs {
				n.Peer().SeedGrade(r.Spec().ID, p, reputation.Even)
			}
		}
		n.SetFriends(refs)
	}
	for _, n := range c.nodes {
		rc.rec.do(span, "node.Start", func() { err = n.Start() })
		if err != nil {
			return c, err
		}
	}
	for _, n := range c.nodes {
		for _, o := range c.nodes {
			if o != n {
				n.SetAddress(o.ID(), o.Addr().String())
			}
		}
	}
	return c, nil
}

// buildClusterTimed builds the cluster five times over (once in the smoke
// test), tearing all but the last down again, so that setup_s is a median and
// not one sample; it returns the last.
func buildClusterTimed(rc *runCtx, shape clusterShape, tag string) (*cluster, error) {
	builds := rc.scaled(5, 1)
	for i := 0; ; i++ {
		sw := startWatch()
		c, err := buildCluster(rc, shape, fmt.Sprintf("%s-%d", tag, i))
		if err != nil {
			return nil, err
		}
		rc.setup(sw.wall())
		if i == builds-1 {
			return c, nil
		}
		c.stop()
	}
}

// stop stops every node (which closes its store) and closes the stores of
// nodes that were never built. Safe to call twice.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
	for _, st := range c.stores[len(c.nodes):] {
		st.Close()
	}
}

// clusterCounts sums what the nodes' public Stats surfaces say.
type clusterCounts struct {
	peer      protocol.PeerStats
	transport node.TransportStats
	polls     uint64 // polls concluded successfully
}

func (c *cluster) counts() clusterCounts {
	var cc clusterCounts
	for _, n := range c.nodes {
		s := n.Stats()
		cc.peer.InvitesConsidered += s.Peer.InvitesConsidered
		cc.peer.InvitesIgnored += s.Peer.InvitesIgnored
		cc.peer.BadProofs += s.Peer.BadProofs
		cc.polls += s.Peer.PollsSucceeded
		cc.transport.Sent += s.Transport.Sent
		cc.transport.Drops += s.Transport.Drops
		cc.transport.Dials += s.Transport.Dials
	}
	return cc
}

// mergedHistogram merges one telemetry histogram across the nodes.
func (c *cluster) mergedHistogram(pick func(*telemetry.Telemetry) *telemetry.Histogram) telemetry.Snapshot {
	var merged telemetry.Snapshot
	for _, n := range c.nodes {
		merged.Merge(pick(n.Telemetry()).Snapshot())
	}
	return merged
}

// maxPollFailRatio is the share of polls that may end without success before
// a cluster run counts as incorrect. A few always do: admission control drops
// invitations at random (that is the defense), so now and then a poll falls
// short of quorum and runs again an interval later. How many is chance, so
// they are not counted as failed operations of the benchmark, which two runs
// of the same code must agree on; poll_fail_ratio reports them.
const maxPollFailRatio = 0.10

func checkPolls(rc *runCtx, ok, bad int) {
	// Under fifty polls (the smoke test) one unlucky poll is several percent.
	if ratio := float64(bad) / float64(ok+bad); ok+bad >= 50 && ratio > maxPollFailRatio {
		rc.res.violate("%d of %d polls did not succeed (%.3f, limit %.2f)", bad, ok+bad, ratio, maxPollFailRatio)
	}
}

// verifyStores reopens every store after the nodes have stopped and checks
// that nothing on disk is damaged.
func (c *cluster) verifyStores(rc *runCtx) error {
	for i, dir := range c.dirs {
		st, err := store.Open(dir)
		if err != nil {
			return fmt.Errorf("reopen store %d: %w", i+1, err)
		}
		var dmg []store.Damage
		rc.rec.do(0, "store.VerifyAll", func() { dmg = st.VerifyAll() })
		if len(dmg) > 0 {
			rc.res.violate("node %d: %d damaged blocks on disk after the run (first: AU %d block %d)", i+1, len(dmg), dmg[0].AU, dmg[0].Block)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// inspectSampler measures the actor mailbox from outside on a traced run: a
// no-op Node.Inspect round trip every 100 ms.
func inspectSampler(n *node.Node, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var rtts []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- rtts
				return
			case <-tick.C:
				start := time.Now()
				if n.Inspect(func(*protocol.Peer) {}) {
					rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
				}
			}
		}
	}()
	return out
}

// layerMetrics reports the per-layer numbers both cluster workloads share:
// transport, actor loop and admission counts, over the measured phase
// (before to after) where the count is a rate and since start where it is a
// total.
func (c *cluster) layerMetrics(rc *runCtx, before, after clusterCounts, rtts []float64) {
	if polls := after.polls - before.polls; polls > 0 {
		rc.layer("node.frames_per_poll", float64(after.transport.Sent-before.transport.Sent)/float64(polls))
		rc.layer("wire.bytes_per_poll", float64(c.tap.bytes.Load())/float64(polls))
	}
	rc.layer("node.transport_drops", float64(after.transport.Drops))
	rc.layer("node.dials", float64(after.transport.Dials))
	rc.layer("protocol.invites_considered", float64(after.peer.InvitesConsidered-before.peer.InvitesConsidered))
	rc.layer("protocol.invites_ignored", float64(after.peer.InvitesIgnored-before.peer.InvitesIgnored))
	rc.layer("protocol.bad_proofs", float64(after.peer.BadProofs-before.peer.BadProofs))
	qw := c.mergedHistogram(func(t *telemetry.Telemetry) *telemetry.Histogram { return &t.QueueWait })
	rc.layer("node.queue_wait_p95_ms", qw.Quantile(0.95)*1e3)
	if len(rtts) > 0 {
		sort.Float64s(rtts)
		rc.layer("node.inspect_rtt_p50_us", quantile(rtts, 0.5))
		rc.layer("node.inspect_rtt_p95_us", quantile(rtts, 0.95))
	}
}
