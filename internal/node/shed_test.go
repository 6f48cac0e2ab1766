package node

import (
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/wire"
)

const (
	shedAU    content.AUID = 1
	knownPeer ids.PeerID   = 7    // seeded Even at the victim
	strangers ids.PeerID   = 1000 // first of the flood's claimed identities
)

// newShedNode builds node 1 holding one AU, knowing knownPeer at an Even grade,
// with a refractory period no test outlives: once one unknown invitation has
// been admitted the unknown/in-debt slot stays closed.
func newShedNode(t *testing.T) *Node {
	t.Helper()
	pc := demoProtocolConfig()
	pc.Refractory = time.Hour
	n := newTestNode(t, Config{Listen: "127.0.0.1:0", Protocol: pc})
	spec := content.AUSpec{ID: shedAU, Name: "au-shed", Size: 64 << 10, BlockSize: 32 << 10}
	if err := n.AddAU(content.NewRealReplica(spec, 1), nil); err != nil {
		t.Fatal(err)
	}
	n.Peer().SeedGrade(shedAU, knownPeer, reputation.Even)
	return n
}

// invitation builds a poll invitation to node n. With genuine set its
// introductory proof is the one the claimed poller would have computed;
// otherwise it is a real proof bound to the wrong context, as a flood's are.
func invitation(n *Node, poller ids.PeerID, pollID uint64, genuine bool) *protocol.Msg {
	now := time.Now()
	m := &protocol.Msg{
		Type: protocol.MsgPoll, AU: shedAU, PollID: pollID, Poller: poller, Voter: n.ID(),
		VoteBy:       sched.Time(now.Add(n.cfg.Protocol.VoteWindow).UnixNano()),
		PollDeadline: sched.Time(now.Add(n.cfg.Protocol.PollInterval).UnixNano()),
	}
	ctx := []byte("bound to the wrong context")
	if genuine {
		ctx = protocol.AppendPollContext(nil, poller, n.ID(), shedAU, pollID, "intro")
	}
	spec := n.Peer().Replica(shedAU).Spec()
	re := protocol.NewRealEffort(poller, 1, n.cfg.MBF, n.cfg.EffortUnit)
	m.Proof = re.MakeProof(ctx, n.cfg.Costs.PollEffortFor(spec.Size, spec.Blocks()).Intro, nil)
	return m
}

func encode(t *testing.T, m *protocol.Msg) []byte {
	t.Helper()
	frame, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestShedPathAllocatesNothing pins what makes rejection cheaper than attack:
// taking the next buffered frame off a session, peeking its header, asking
// the gate and dropping it allocates nothing.
func TestShedPathAllocatesNothing(t *testing.T) {
	n := newShedNode(t)
	rep := n.Peer().Reputation(shedAU)
	for rnd := prng.New(1); rep.Consider(n.env.Now(), strangers, rnd) != reputation.AdmitUnknown; {
	}
	if n.sheds(encode(t, invitation(n, knownPeer, 2, false))) || n.sheds(encode(t, invitation(n, n.ID(), 3, false))) {
		t.Fatal("an invitation claiming a known peer's or the node's own identity was shed")
	}

	const frames = 3000
	junk := encode(t, invitation(n, strangers+1, 1, false))
	client, server := sessionPair(t)
	defer client.Close()
	defer server.Close()
	go func() {
		for i := 0; i < frames; i++ {
			if client.WriteMsg(junk) != nil {
				return
			}
		}
	}()
	next := func() {
		frame, err := server.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if !n.sheds(frame) {
			t.Fatal("a stranger's invitation was not shed with the slot closed")
		}
	}
	next() // the session's first read borrows its buffer
	if allocs := testing.AllocsPerRun(frames-2, next); allocs != 0 {
		t.Errorf("%v allocations per shed frame, want 0", allocs)
	}
}

// TestFloodShedSparesKnownPeer: while a flood of strangers' invitations is
// being shed in the read loop, an invitation from a peer the node knows at an
// Even grade is still admitted and verified; a second one claiming the same
// identity — a spoof, for all the node can tell — reaches the actor too and
// gets what it got before there was a gate: the one-per-refractory-period
// rate cap, nothing more. And every invitation is accounted for, wherever it
// was turned away.
func TestFloodShedSparesKnownPeer(t *testing.T) {
	n := newShedNode(t)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	attacker := dialSession(t, n.Addr().String())
	defer attacker.Close()

	const burst = 300
	sent := uint64(0)
	send := func(m *protocol.Msg) {
		t.Helper()
		if err := attacker.WriteMsg(encode(t, m)); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	junk := invitation(n, strangers, 0, false)
	flood := func() {
		t.Helper()
		for i := 0; i < burst; i++ {
			junk.Poller, junk.PollID = strangers+ids.PeerID(sent%64), sent
			send(junk)
		}
	}
	// One stranger in ten gets past the random drop; the first to do so
	// closes the slot, and from then on the read loop sheds.
	if !waitUntil(10*time.Second, 5*time.Millisecond, func() bool {
		flood()
		return n.tr.stats().InvitesShed > 0
	}) {
		t.Fatal("the read loop never started shedding")
	}
	send(invitation(n, knownPeer, 1<<32, true))
	flood()
	send(invitation(n, knownPeer, 1<<32+1, true))
	flood()

	var st Stats
	if !waitUntil(10*time.Second, 10*time.Millisecond, func() bool {
		st = n.Stats()
		return st.Peer.InvitesIgnored+st.Peer.InvitesConsidered == sent
	}) {
		t.Fatalf("of %d invitations sent, %d ignored + %d considered", sent, st.Peer.InvitesIgnored, st.Peer.InvitesConsidered)
	}
	var known, capped, unknown uint64
	n.Inspect(func(p *protocol.Peer) {
		l := p.Reputation(shedAU)
		known, capped, unknown = l.AdmittedKnown, l.RejectedRateCap, l.AdmittedUnknown
	})
	if known != 1 || capped != 1 {
		t.Errorf("known peer's two invitations: %d admitted, %d rate-capped; want 1 and 1", known, capped)
	}
	if unknown != 1 {
		t.Errorf("%d strangers took the unknown slot, want 1", unknown)
	}
	if st.Peer.InvitesConsidered != known+unknown {
		t.Errorf("%d invitations considered, want the %d admitted", st.Peer.InvitesConsidered, known+unknown)
	}
	// Only the stranger's proof was bad: the known peer's verified.
	if st.Peer.BadProofs != unknown {
		t.Errorf("%d bad proofs, want %d", st.Peer.BadProofs, unknown)
	}
	// Everything after the slot closed, the two known-peer invitations
	// apart, never reached the actor.
	if shed := st.Transport.InvitesShed; shed < 2*burst || shed > sent-3 {
		t.Errorf("%d of %d invitations shed in the read loop, want the last %d and some of those before", shed, sent, 2*burst)
	}
}
