package protocol

import (
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/reputation"
	"lockss/internal/sim"
)

// pollerHarness runs one peer as poller against scripted voter behavior.
type pollerHarness struct {
	t        *testing.T
	env      *fakeEnv
	p        *Peer
	replica  content.Replica
	pe       effort.PollEffort
	voters   map[ids.PeerID]*scriptedVoter
	au       content.AUID
	delay    sim.Duration // simulated network delay for scripted replies
	receipts map[ids.PeerID]effort.Receipt
	// receiptsGot counts evaluation receipts delivered to each voter.
	receiptsGot map[ids.PeerID]int
	// invites logs every Poll message the poller sent, answered or not.
	invites []sentMsg
}

// scriptedVoter describes how a fake voter behaves.
type scriptedVoter struct {
	replica    content.Replica
	refuse     bool // always refuse busy
	silent     bool // never answer
	noVote     bool // accept, then never vote
	badProof   bool // vote with an invalid effort proof
	noms       []ids.PeerID
	norepair   bool
	votedNonce *Nonce
}

func newPollerHarness(t *testing.T, cfg Config, voterIDs []ids.PeerID) *pollerHarness {
	return newPollerHarnessOf(t, cfg, voterIDs, func(salt uint64) content.Replica {
		return content.NewSimReplica(testSpecN(4), salt)
	})
}

// newPollerHarnessOf is newPollerHarness with every replica, the poller's
// (salt 1) and each voter's, built by mk.
func newPollerHarnessOf(t *testing.T, cfg Config, voterIDs []ids.PeerID, mk func(salt uint64) content.Replica) *pollerHarness {
	env := newFakeEnv(42)
	h := &pollerHarness{
		t:           t,
		env:         env,
		voters:      make(map[ids.PeerID]*scriptedVoter),
		au:          1,
		delay:       sim.Duration(50 * time.Millisecond),
		receipts:    make(map[ids.PeerID]effort.Receipt),
		receiptsGot: make(map[ids.PeerID]int),
	}
	h.replica = mk(1)
	h.p = newTestPeerOf(t, env, 1, cfg, voterIDs, h.replica)
	spec := h.replica.Spec()
	h.pe = effort.DefaultCostModel().PollEffortFor(spec.Size, spec.Blocks())
	for i, v := range voterIDs {
		h.voters[v] = &scriptedVoter{replica: mk(uint64(100 + i))}
		h.p.SeedGrade(h.au, v, reputation.Even)
	}
	return h
}

// pump processes outbound messages, generating scripted replies, stepping
// the engine one event at a time so replies interleave naturally, until the
// horizon passes or the system quiesces.
func (h *pollerHarness) pump(horizon sim.Duration) {
	h.pumpUntil(horizon, func() bool { return false })
}

// pumpUntil is pump that also stops as soon as done reports true.
func (h *pollerHarness) pumpUntil(horizon sim.Duration, done func() bool) {
	deadline := h.env.eng.Now().Add(horizon)
	for {
		for _, s := range h.env.take() {
			h.reply(s)
		}
		if done() {
			break
		}
		next, ok := h.env.eng.Next()
		if !ok || next > deadline {
			break
		}
		h.env.eng.Step()
	}
}

// reply scripts the voter side of the exchange.
func (h *pollerHarness) reply(s sentMsg) {
	if s.m.Type == MsgPoll {
		h.invites = append(h.invites, s)
	}
	v, ok := h.voters[s.to]
	if !ok || v.silent {
		return
	}
	m := s.m
	after := func(d sim.Duration, fn func()) { h.env.eng.After(d, fn) }
	switch m.Type {
	case MsgPoll:
		reply := &Msg{Type: MsgPollAck, AU: m.AU, PollID: m.PollID, Poller: m.Poller, Voter: s.to}
		reply.Accept = !v.refuse
		if v.refuse {
			reply.Refuse = RefuseBusy
		}
		after(h.delay, func() { h.p.Receive(reply.Voter, reply) })
	case MsgPollProof:
		if v.noVote {
			return
		}
		nonce := m.Nonce
		v.votedNonce = &nonce
		vote := &Msg{
			Type: MsgVote, AU: m.AU, PollID: m.PollID, Poller: m.Poller, Voter: s.to,
			Vote:        VoteDataOf(v.replica, nonce[:]),
			Nominations: v.noms,
		}
		ctx := AppendPollContext(nil, m.Poller, s.to, m.AU, m.PollID, "vote")
		if v.badProof {
			vote.Proof = effort.SimProof{Effort: h.pe.VoteProof, Genuine: false}
		} else {
			vote.Proof = effort.SimProof{Effort: h.pe.VoteProof, Genuine: true}
			h.receipts[s.to] = effort.SimReceiptFor(ctx, h.pe.VoteProof)
		}
		after(h.delay, func() { h.p.Receive(vote.Voter, vote) })
	case MsgRepairRequest:
		if v.norepair {
			return
		}
		data, err := v.replica.RepairBlock(int(m.Block))
		if err != nil {
			return
		}
		rep := &Msg{Type: MsgRepair, AU: m.AU, PollID: m.PollID, Poller: m.Poller, Voter: s.to,
			Block: m.Block, RepairData: data}
		after(h.delay, func() { h.p.Receive(rep.Voter, rep) })
	case MsgEvaluationReceipt:
		h.receiptsGot[s.to]++
	}
}

func pollerConfig() Config {
	cfg := testConfig()
	cfg.InnerCircle = 5
	cfg.Quorum = 3
	cfg.MaxDisagree = 1
	cfg.OuterCircle = 0
	return cfg
}

func TestPollerHappyPath(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.p.Start()
	h.pump(3 * sim.Duration(pollerConfig().PollInterval))
	st := h.p.Stats()
	if st.PollsSucceeded == 0 {
		t.Fatalf("no successful polls: %+v", st)
	}
	if st.PollsInconclusive != 0 || st.PollsRepairFailed != 0 {
		t.Errorf("unexpected poll failures: %+v", st)
	}
	if st.VotesReceived < uint64(pollerConfig().Quorum) {
		t.Errorf("too few votes: %d", st.VotesReceived)
	}
}

func TestPollerRepairsOwnDamage(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.replica.Damage(2)
	h.p.Start()
	h.pump(2 * sim.Duration(pollerConfig().PollInterval))
	if h.replica.Damaged() {
		t.Error("poller's damaged block was not repaired")
	}
	if h.p.Stats().RepairsReceived == 0 {
		t.Error("no repair received")
	}
	if h.p.Stats().PollsSucceeded == 0 {
		t.Error("repairing poll should conclude successfully")
	}
}

func TestPollerExcludesDamagedVoter(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.voters[3].replica.Damage(1) // one voter holds a damaged replica
	h.p.Start()
	h.pump(2 * sim.Duration(pollerConfig().PollInterval))
	if h.replica.Damaged() {
		t.Error("poller replica should be intact")
	}
	if h.p.Stats().PollsSucceeded == 0 {
		t.Error("landslide agreement should still succeed")
	}
	if h.p.Stats().RepairsReceived != 0 {
		t.Error("no repair should be needed for the poller")
	}
}

func TestPollerInconclusiveAlarm(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	// Split the population: two voters damaged at block 1 (distinct
	// corruption), vs three agreeing with the poller. With MaxDisagree=1,
	// 2 disagreeing of 5 is no landslide either way at that block... the
	// tally is 3 agree / 2 disagree: agree > MaxDisagree and disagree >
	// MaxDisagree -> inconclusive.
	h.voters[2].replica.Damage(1)
	h.voters[3].replica.Damage(1)
	h.p.Start()
	h.pump(2 * sim.Duration(cfg.PollInterval))
	if h.p.Stats().PollsInconclusive == 0 {
		t.Errorf("expected an inconclusive poll: %+v", h.p.Stats())
	}
}

func TestPollerInquorate(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	for _, v := range h.voters {
		v.silent = true // total non-response (e.g. pipe stoppage)
	}
	h.p.Start()
	h.pump(2 * sim.Duration(pollerConfig().PollInterval))
	st := h.p.Stats()
	if st.PollsInquorate == 0 {
		t.Errorf("expected inquorate polls: %+v", st)
	}
	if st.PollsSucceeded != 0 {
		t.Error("silent voters cannot produce success")
	}
	// Rate limitation: the next poll must still have been scheduled.
	if _, ok := h.env.eng.Next(); !ok {
		t.Error("no next poll scheduled after failure")
	}
}

func TestPollerRetriesRefusals(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.voters[2].refuse = true
	h.p.Start()
	h.pump(sim.Duration(pollerConfig().PollInterval))
	// The reluctant voter is re-invited later in the same phase.
	polls := 0
	for _, s := range h.env.sent {
		_ = s
	}
	if h.p.Stats().PollsSucceeded == 0 {
		t.Error("poll should succeed despite one refusal")
	}
	_ = polls
}

func TestPollerPenalizesCommittedNonVoter(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.voters[2].noVote = true
	h.p.Start()
	h.pump(2 * sim.Duration(pollerConfig().PollInterval))
	if h.p.Stats().VotesTimedOut == 0 {
		t.Error("committed non-voter did not time out")
	}
	g := h.p.Reputation(h.au).GradeOf(reputation.Time(h.env.Now()), 2)
	if g != reputation.Debt {
		t.Errorf("deserting voter grade %v, want debt", g)
	}
}

func TestPollerRejectsBadVoteProof(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.voters[2].badProof = true
	h.p.Start()
	h.pump(2 * sim.Duration(pollerConfig().PollInterval))
	if h.p.Stats().BadProofs == 0 {
		t.Error("bogus vote proof not detected")
	}
	g := h.p.Reputation(h.au).GradeOf(reputation.Time(h.env.Now()), 2)
	if g != reputation.Debt {
		t.Errorf("bogus voter grade %v, want debt", g)
	}
}

func TestPollerGradeBookkeeping(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.p.Start()
	h.pump(sim.Duration(pollerConfig().PollInterval))
	// Voters that supplied valid votes get raised (even -> credit).
	raised := 0
	for v := range h.voters {
		if h.p.Reputation(h.au).GradeOf(reputation.Time(h.env.Now()), v) == reputation.Credit {
			raised++
		}
	}
	if raised < pollerConfig().Quorum {
		t.Errorf("only %d voters raised", raised)
	}
}

func TestPollerReferenceListChurn(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.p.Start()
	h.pump(sim.Duration(cfg.PollInterval) * 3 / 2)
	if h.p.Stats().PollsSucceeded == 0 {
		t.Fatal("no successful poll")
	}
	// Tallied voters are removed; friends replenish. With no friends set,
	// the list refills from tallied voters only if below quorum.
	refs := h.p.ReferenceList(h.au)
	if len(refs) == 0 {
		t.Error("reference list emptied out")
	}
}

func TestPollerFrivolousRepair(t *testing.T) {
	cfg := pollerConfig()
	cfg.FrivolousRepairProb = 1.0 // always request one
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.p.Start()
	h.pump(sim.Duration(cfg.PollInterval) * 3 / 2)
	if h.p.Stats().RepairsReceived == 0 {
		t.Error("frivolous repair was not requested")
	}
	if h.replica.Damaged() {
		t.Error("frivolous repair corrupted the replica")
	}
	if h.p.Stats().PollsSucceeded == 0 {
		t.Error("poll with frivolous repair should succeed")
	}
}

func TestPollerRepairFromSecondSourceAfterTimeout(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.replica.Damage(0)
	// Some voters refuse to serve repairs; the poller must try others.
	h.voters[2].norepair = true
	h.voters[3].norepair = true
	h.p.Start()
	h.pump(3 * sim.Duration(cfg.PollInterval))
	if h.replica.Damaged() {
		t.Error("repair did not route around unresponsive suppliers")
	}
}

// TestOuterCircleSolicitsNobodyTwice has every voter nominate an inner-circle
// member, the poller itself, a reference-list member the inner circle passed
// over, and two strangers: only the strangers may join the outer circle, and
// no peer is invited twice in one poll.
func TestOuterCircleSolicitsNobodyTwice(t *testing.T) {
	cfg := pollerConfig()
	cfg.OuterCircle = 4
	cfg.Introductions = false // every nomination goes to the outer-circle pool
	refs := []ids.PeerID{2, 3, 4, 5, 6, 7, 8}
	h := newPollerHarness(t, cfg, refs)
	strangers := []ids.PeerID{20, 21}
	for i, v := range strangers {
		h.voters[v] = &scriptedVoter{replica: content.NewSimReplica(testSpecN(4), uint64(200+i))}
	}
	for _, v := range h.voters {
		v.noms = append([]ids.PeerID{1}, append(refs, strangers...)...)
	}
	h.p.Start()
	for h.p.Stats().PollsConcluded() == 0 { // stop where the first poll left things
		for _, s := range h.env.take() {
			h.reply(s)
		}
		if !h.env.eng.Step() {
			t.Fatal("the engine ran dry before the first poll concluded")
		}
	}
	if h.p.Stats().PollsSucceeded != 1 {
		t.Fatalf("the first poll did not succeed: %+v", h.p.Stats())
	}
	first := h.invites[0].m.PollID
	invited := make(map[ids.PeerID]int)
	for _, s := range h.invites {
		if s.m.PollID == first {
			invited[s.to]++
		}
	}
	for v, n := range invited {
		if n != 1 {
			t.Errorf("peer %v invited %d times in one poll", v, n)
		}
	}
	if invited[1] != 0 {
		t.Error("the poller solicited itself")
	}
	for _, v := range strangers {
		if invited[v] != 1 {
			t.Errorf("nominated stranger %v invited %d times, want 1", v, invited[v])
		}
	}
	if want := cfg.InnerCircle + len(strangers); len(invited) != want {
		t.Errorf("%d peers invited, want the inner circle plus the strangers = %d: %v", len(invited), want, invited)
	}
	// Agreeing outer-circle voters join the reference list exactly once.
	seen := make(map[ids.PeerID]int)
	for _, v := range h.p.ReferenceList(h.au) {
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("peer %v appears %d times in the reference list", v, n)
		}
	}
	for _, v := range strangers {
		if seen[v] != 1 {
			t.Errorf("agreeing outer-circle voter %v not inserted into the reference list", v)
		}
	}
}

// TestPollerQuorumTwoSplitIsInconclusive: at quorum 2, DemoConfig's landslide
// margin must not score a 1:1 split as agreement.
func TestPollerQuorumTwoSplitIsInconclusive(t *testing.T) {
	demo, err := DemoConfig(1500*time.Millisecond, 2, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pollerConfig()
	cfg.Quorum, cfg.InnerCircle, cfg.MaxDisagree = demo.Quorum, demo.InnerCircle, demo.MaxDisagree
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3})
	h.voters[2].replica.Damage(1)
	h.p.Start()
	h.pump(2 * sim.Duration(cfg.PollInterval))
	if st := h.p.Stats(); st.PollsInconclusive == 0 || st.PollsSucceeded != 0 {
		t.Errorf("a 1:1 split at quorum 2 concluded %+v, want inconclusive polls only", st)
	}
}
