package harness

import (
	"bytes"
	"flag"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/session"
	"lockss/internal/trace"
	"lockss/internal/wire"
	"lockss/internal/world"
)

var updateGolden = flag.Bool("update-golden", false,
	"re-record the golden trace from a live cluster and rewrite testdata/traces")

const (
	goldenTrace  = "testdata/traces/cluster-repair.trace.jsonl"
	goldenReport = "testdata/traces/cluster-repair.report.golden"
)

// recordClusterTrace runs the standard damaged-node cluster with node 1
// recording, waits for the scrub→audit→repair cycle to complete on the
// recorded node, and returns the serialized trace.
func recordClusterTrace(t *testing.T) []byte {
	const N = 6
	spec := content.AUSpec{ID: 1, Name: "au-trace", Size: 128 << 10, BlockSize: 32 << 10}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	c := newTestCluster(t, N, spec, func(i int, cfg *node.Config) {
		if i == 0 {
			cfg.Tap = rec
			cfg.Observer = rec
		}
	})

	store0 := c.Members[0].Store

	// Silent rot on the recorded node, before anything runs.
	if err := store0.InjectDamage(spec.ID, 2); err != nil {
		t.Fatal(err)
	}

	// The header describes node 1's bootstrap as newTestCluster declared it
	// and the builder performed it: seed 2000+0, the demo-scale effort
	// parameters, the salt the store ingested with, full-mesh refs at Even.
	refs := []ids.PeerID{2, 3, 4, 5, 6}
	grades := make([]trace.GradeRef, len(refs))
	for i, r := range refs {
		grades[i] = trace.GradeRef{Peer: r, Grade: uint8(reputation.Even)}
	}
	hdr := trace.Header{
		Peer:       1,
		Seed:       2000,
		StartT:     int64(c.Members[0].Node.Epoch()),
		Protocol:   demoProtocolConfig(),
		Costs:      effort.DemoCostModel(),
		MBF:        effort.DemoMBFParams(),
		EffortUnit: float64(effort.DemoEffortUnit),
		Friends:    refs,
		AUs: []trace.AUHeader{{
			ID: spec.ID, Name: spec.Name, Size: spec.Size, BlockSize: spec.BlockSize,
			Salt: store0.Replica(spec.ID).Salt(), Refs: refs, Grades: grades,
		}},
		Injected: []trace.DamageRef{{AU: spec.ID, Block: 2}},
	}
	if err := rec.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}

	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	if !WaitFor(45*time.Second, 100*time.Millisecond, func() bool {
		dam := store0.VerifyAll()
		return dam == nil && !store0.Replica(spec.ID).Damaged()
	}) {
		succ, other, repairs := pollCounts(c)
		t.Fatalf("recorded node never repaired (polls ok=%d other=%d repairs=%d)", succ, other, repairs)
	}
	// Grace period so the repairing poll's conclusion (receipt round) lands
	// in the trace; this pads the recording, it gates nothing.
	time.Sleep(2 * time.Second)

	// Stop the recorded node first so its trace ends at a quiet point.
	c.Stop()
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder: %v", err)
	}
	return buf.Bytes()
}

// assertReplayMatches replays raw twice and requires (a) no divergence from
// the recording and (b) byte-identical reports across the two replays.
func assertReplayMatches(t *testing.T, raw []byte) *trace.Result {
	t.Helper()
	tr, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged() {
		t.Fatalf("replay diverged from recording:\n%s", res.Report())
	}
	tr2, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := trace.Replay(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report() != res2.Report() {
		t.Fatal("two replays of the same trace produced different reports")
	}
	return res
}

// TestClusterRecordReplayLive is the end-to-end determinism check: record a
// real cluster run (TCP, stores, scrub, MBF proofs), then re-execute the
// recorded node's event stream offline and require identical observable
// behavior — every send, poll outcome, repair and alarm, in order.
func TestClusterRecordReplayLive(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	raw := recordClusterTrace(t)
	res := assertReplayMatches(t, raw)
	if res.Inputs == 0 || len(res.Recorded) == 0 {
		t.Errorf("trace is trivial: %d inputs, %d outputs", res.Inputs, len(res.Recorded))
	}
	var sawRepair bool
	for _, k := range res.Recorded {
		if k == "repair au=1 block=2" {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Errorf("recorded outputs never repaired au 1 block 2: %v", res.Recorded)
	}
}

// TestGoldenTraceReplay replays the committed golden trace and pins the
// replayed poll/repair event sequence byte-for-byte. It needs no cluster and
// runs in the short suite; regenerate the artifacts with -update-golden
// after an intentional protocol change.
func TestGoldenTraceReplay(t *testing.T) {
	if *updateGolden {
		raw := recordClusterTrace(t)
		res := assertReplayMatches(t, raw)
		if err := os.MkdirAll(filepath.Dir(goldenTrace), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTrace, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReport, []byte(res.Report()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) and %s", goldenTrace, len(raw), goldenReport)
	}
	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatalf("golden trace missing (regenerate with -update-golden): %v", err)
	}
	res := assertReplayMatches(t, raw)
	golden, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report() != string(golden) {
		t.Errorf("replayed event sequence diverged from the pinned golden report:\n--- got ---\n%s--- want ---\n%s",
			res.Report(), golden)
	}
}

// TestReplayHoldsTheStartInstant: the golden trace replays only from the
// instant its peer started. A header that says the peer started a
// millisecond later has timers fire before they are due; one that says a
// millisecond earlier has timers fall due that the recording never fired.
func TestReplayHoldsTheStartInstant(t *testing.T) {
	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []time.Duration{time.Millisecond, -time.Millisecond} {
		tr, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		tr.Header.StartT += int64(shift)
		res, err := trace.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Diverged() {
			t.Errorf("StartT moved by %v: the replay did not diverge", shift)
		}
	}
}

// TestRecordReplayUnderShedFlood pins the tap's contract with the read
// loops' shedding: the tap sees every frame delivered to Peer.Receive, the
// invitations a reader sheds are not among them, and because a shed frame is
// no input to the peer a replay of the tapped frames alone arrives at the
// recorded peer's exact counters. One node, alone, records while a stranger
// floods it with invitations from identities it does not know.
func TestRecordReplayUnderShedFlood(t *testing.T) {
	spec := content.AUSpec{ID: 1, Name: "au-flood", Size: 64 << 10, BlockSize: 32 << 10}
	pc := demoProtocolConfig()
	pc.Refractory = time.Hour // the slot the first admitted stranger closes stays closed
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	c, err := BuildCluster(ClusterSpec{AUs: []content.AUSpec{spec}, Members: []MemberSpec{{Config: node.Config{
		Protocol: pc, Costs: effort.DemoCostModel(), Seed: 3000, Tap: rec, Observer: rec,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	n := c.Members[0].Node
	if err := rec.WriteHeader(trace.Header{
		Peer: 1, Seed: 3000, StartT: int64(n.Epoch()),
		Protocol: pc, Costs: effort.DemoCostModel(), MBF: effort.DemoMBFParams(), EffortUnit: float64(effort.DemoEffortUnit),
		AUs: []trace.AUHeader{{
			ID: spec.ID, Name: spec.Name, Size: spec.Size, BlockSize: spec.BlockSize, Salt: world.ReplicaSalt(1, spec.ID),
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := session.Client(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	proof, _ := effort.NewMBF(effort.DemoMBFParams()).Generate([]byte("bound to the wrong context"), 1, effort.DemoEffortUnit)
	sent := uint64(0)
	burst := func() {
		for i := 0; i < 100; i++ {
			now := time.Now()
			frame, err := wire.Encode(&protocol.Msg{
				Type: protocol.MsgPoll, AU: spec.ID, PollID: 1<<40 | sent, Poller: 1000 + ids.PeerID(sent%32), Voter: 1,
				VoteBy:       sched.Time(now.Add(time.Second).UnixNano()),
				PollDeadline: sched.Time(now.Add(2 * time.Second).UnixNano()),
				Proof:        proof,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := attacker.WriteMsg(frame); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	// One stranger in ten passes the random drop and the first closes the
	// slot; whatever the readers see after that they shed.
	if !WaitFor(10*time.Second, 5*time.Millisecond, func() bool {
		burst()
		return n.StatsFrom(protocol.PeerStats{}).Transport.InvitesShed > 0
	}) {
		t.Fatalf("%d invitations reached the actor whole: nothing was shed", sent)
	}
	burst()
	var st node.Stats
	if !WaitFor(10*time.Second, 10*time.Millisecond, func() bool {
		st = n.Stats()
		return st.Peer.InvitesIgnored+st.Peer.InvitesConsidered == sent
	}) {
		t.Fatalf("of %d invitations, %d ignored + %d considered", sent, st.Peer.InvitesIgnored, st.Peer.InvitesConsidered)
	}
	c.Stop()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	res := assertReplayMatches(t, buf.Bytes())
	live := n.Peer().Stats() // what reached the peer; Node.Stats adds the shed on top
	if res.Stats != live {
		t.Errorf("replayed peer counters differ from the live peer's:\nreplay %+v\nlive   %+v", res.Stats, live)
	}
	if live.InvitesIgnored+st.Transport.InvitesShed != st.Peer.InvitesIgnored {
		t.Errorf("ignored invitations: peer %d + shed %d != reported %d", live.InvitesIgnored, st.Transport.InvitesShed, st.Peer.InvitesIgnored)
	}
}
