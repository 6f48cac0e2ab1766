package protocol

import (
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/sim"
)

// inviteMsg builds a valid Poll invitation from poller to voter.
func inviteMsg(p *Peer, poller ids.PeerID, env *fakeEnv, pollID uint64) *Msg {
	au := p.AUs()[0]
	pe := effort.DefaultCostModel().PollEffortFor(testSpecN(4).Size, 4)
	m := &Msg{
		Type:         MsgPoll,
		AU:           au,
		PollID:       pollID,
		Poller:       poller,
		Voter:        p.ID(),
		VoteBy:       env.Now() + sched.Time(p.cfg.VoteWindow),
		PollDeadline: env.Now() + sched.Time(p.cfg.PollInterval),
	}
	m.Proof = effort.SimProof{Effort: pe.Intro, Genuine: true}
	return m
}

func proofMsg(p *Peer, poller ids.PeerID, pollID uint64, nonce Nonce) *Msg {
	pe := effort.DefaultCostModel().PollEffortFor(testSpecN(4).Size, 4)
	return &Msg{
		Type:   MsgPollProof,
		AU:     p.AUs()[0],
		PollID: pollID,
		Poller: poller,
		Voter:  p.ID(),
		Nonce:  nonce,
		Proof:  effort.SimProof{Effort: pe.Remainder, Genuine: true},
	}
}

func TestVoterAcceptsAndCommits(t *testing.T) {
	env := newFakeEnv(1)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2, 3})
	poller := ids.PeerID(2)
	p.SeedGrade(p.AUs()[0], poller, reputation.Even)

	p.Receive(poller, inviteMsg(p, poller, env, 100))
	ack := env.lastTo(poller, MsgPollAck)
	if ack == nil || !ack.Accept {
		t.Fatalf("expected acceptance, got %+v", ack)
	}
	if p.Schedule().Len() != 1 {
		t.Fatalf("no schedule commitment recorded")
	}
	if p.Stats().InvitesConsidered != 1 {
		t.Error("consideration not counted")
	}
}

func TestVoterReservationTimeout(t *testing.T) {
	env := newFakeEnv(2)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2, 3})
	poller := ids.PeerID(2)
	au := p.AUs()[0]
	p.SeedGrade(au, poller, reputation.Even)

	p.Receive(poller, inviteMsg(p, poller, env, 100))
	if p.Schedule().Len() != 1 {
		t.Fatal("no commitment")
	}
	// Never send the PollProof: a reservation attack. The voter must
	// release the slot and penalize.
	env.eng.Run(sim.Time(2 * time.Hour))
	if p.Schedule().Len() != 0 {
		t.Error("deserted reservation not released")
	}
	if g := p.Reputation(au).GradeOf(reputation.Time(env.Now()), poller); g != reputation.Debt {
		t.Errorf("deserting poller grade %v, want debt", g)
	}
	if p.Stats().ProofsTimedOut != 1 {
		t.Error("proof timeout not counted")
	}
}

func TestVoterRefusesWhenBusy(t *testing.T) {
	env := newFakeEnv(3)
	cfg := testConfig()
	p, _ := newTestPeer(t, env, 10, cfg, []ids.PeerID{2, 3})
	poller := ids.PeerID(2)
	au := p.AUs()[0]
	p.SeedGrade(au, poller, reputation.Even)

	// Saturate the schedule across the whole vote window.
	if _, err := p.Schedule().Reserve(0, sched.Duration(cfg.VoteWindow)*2, "busy"); err != nil {
		t.Fatal(err)
	}
	p.Receive(poller, inviteMsg(p, poller, env, 100))
	ack := env.lastTo(poller, MsgPollAck)
	if ack == nil || ack.Accept || ack.Refuse != RefuseBusy {
		t.Fatalf("expected busy refusal, got %+v", ack)
	}
}

func TestVoterRejectsBadIntroEffort(t *testing.T) {
	env := newFakeEnv(4)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2, 3})
	poller := ids.PeerID(2)
	au := p.AUs()[0]
	p.SeedGrade(au, poller, reputation.Even)

	m := inviteMsg(p, poller, env, 100)
	m.Proof = effort.SimProof{Effort: 0, Genuine: true} // no effort at all
	p.Receive(poller, m)
	ack := env.lastTo(poller, MsgPollAck)
	if ack == nil || ack.Accept || ack.Refuse != RefuseBadEffort {
		t.Fatalf("expected bad-effort refusal, got %+v", ack)
	}
	if g := p.Reputation(au).GradeOf(reputation.Time(env.Now()), poller); g != reputation.Debt {
		t.Errorf("cheap poller grade %v, want debt", g)
	}
}

func TestVoterFullFlowAndReceipt(t *testing.T) {
	env := newFakeEnv(5)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2, 3, 4, 5})
	poller := ids.PeerID(2)
	au := p.AUs()[0]
	p.SeedGrade(au, poller, reputation.Credit)

	p.Receive(poller, inviteMsg(p, poller, env, 100))
	if a := env.lastTo(poller, MsgPollAck); a == nil || !a.Accept {
		t.Fatal("not accepted")
	}
	var nonce Nonce
	nonce[0] = 9
	p.Receive(poller, proofMsg(p, poller, 100, nonce))
	// The vote materializes at the end of the reserved compute slot.
	env.eng.Run(sim.Time(12 * time.Hour))
	vote := env.lastTo(poller, MsgVote)
	if vote == nil {
		t.Fatal("no vote sent")
	}
	if vote.Vote == nil || vote.Vote.Blocks() != 4 {
		t.Fatalf("vote body wrong: %+v", vote.Vote)
	}
	if len(vote.Nominations) == 0 {
		t.Error("vote carries no nominations")
	}
	for _, nom := range vote.Nominations {
		if nom == poller || nom == p.ID() {
			t.Errorf("nominated %v (poller or self)", nom)
		}
	}
	if vote.Proof == nil {
		t.Fatal("vote carries no effort proof")
	}
	if p.Stats().VotesSupplied != 1 {
		t.Error("vote not counted")
	}

	// A valid receipt settles the exchange: the poller consumed a vote, so
	// its grade drops one step (credit -> even).
	ctx := AppendPollContext(nil, poller, p.ID(), au, 100, "vote")
	receipt := effort.SimReceiptFor(ctx, vote.Proof.Cost())
	p.Receive(poller, &Msg{
		Type: MsgEvaluationReceipt, AU: au, PollID: 100,
		Poller: poller, Voter: p.ID(), Receipt: receipt,
	})
	if g := p.Reputation(au).GradeOf(reputation.Time(env.Now()), poller); g != reputation.Even {
		t.Errorf("grade after valid receipt %v, want even", g)
	}
}

func TestVoterPenalizesBogusReceipt(t *testing.T) {
	env := newFakeEnv(6)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2, 3, 4})
	poller := ids.PeerID(2)
	au := p.AUs()[0]
	p.SeedGrade(au, poller, reputation.Credit)

	p.Receive(poller, inviteMsg(p, poller, env, 100))
	p.Receive(poller, proofMsg(p, poller, 100, Nonce{}))
	env.eng.Run(sim.Time(12 * time.Hour))
	if env.lastTo(poller, MsgVote) == nil {
		t.Fatal("no vote")
	}
	var bogus effort.Receipt
	bogus[0] = 0xAA
	p.Receive(poller, &Msg{
		Type: MsgEvaluationReceipt, AU: au, PollID: 100,
		Poller: poller, Voter: p.ID(), Receipt: bogus,
	})
	if g := p.Reputation(au).GradeOf(reputation.Time(env.Now()), poller); g != reputation.Debt {
		t.Errorf("grade after bogus receipt %v, want debt", g)
	}
}

func TestVoterReceiptTimeout(t *testing.T) {
	env := newFakeEnv(7)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2, 3, 4})
	poller := ids.PeerID(2)
	au := p.AUs()[0]
	p.SeedGrade(au, poller, reputation.Credit)

	p.Receive(poller, inviteMsg(p, poller, env, 100))
	p.Receive(poller, proofMsg(p, poller, 100, Nonce{}))
	// Run past the poll deadline plus slack with no receipt: a wasteful
	// poller; penalize.
	env.eng.Run(sim.Time(sched.Duration(testConfig().PollInterval) + 10*time.Hour))
	if g := p.Reputation(au).GradeOf(reputation.Time(env.Now()), poller); g != reputation.Debt {
		t.Errorf("grade after receipt timeout %v, want debt", g)
	}
	if p.Stats().ReceiptsTimedOut != 1 {
		t.Error("receipt timeout not counted")
	}
}

func TestVoterServesRepairsUpToCap(t *testing.T) {
	env := newFakeEnv(8)
	cfg := testConfig()
	cfg.MaxRepairsServed = 2
	p, _ := newTestPeer(t, env, 10, cfg, []ids.PeerID{2, 3, 4})
	poller := ids.PeerID(2)
	au := p.AUs()[0]
	p.SeedGrade(au, poller, reputation.Even)

	p.Receive(poller, inviteMsg(p, poller, env, 100))
	p.Receive(poller, proofMsg(p, poller, 100, Nonce{}))
	env.eng.Run(sim.Time(12 * time.Hour))
	if env.lastTo(poller, MsgVote) == nil {
		t.Fatal("no vote")
	}
	env.take()
	for i := 0; i < 4; i++ {
		p.Receive(poller, &Msg{
			Type: MsgRepairRequest, AU: au, PollID: 100,
			Poller: poller, Voter: p.ID(), Block: int32(i % 4),
		})
	}
	served := 0
	for _, s := range env.take() {
		if s.m.Type == MsgRepair {
			served++
			if len(s.m.RepairData) == 0 {
				t.Error("empty repair payload")
			}
		}
	}
	if served != 2 {
		t.Errorf("served %d repairs, want cap 2", served)
	}
}

func TestVoterIgnoresRepairRequestWithoutSession(t *testing.T) {
	env := newFakeEnv(9)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2})
	p.Receive(3, &Msg{
		Type: MsgRepairRequest, AU: p.AUs()[0], PollID: 5,
		Poller: 3, Voter: p.ID(), Block: 0,
	})
	if len(env.take()) != 0 {
		t.Error("served a repair with no committed session")
	}
}

func TestVoterSilentlyDropsUnknown(t *testing.T) {
	env := newFakeEnv(10)
	cfg := testConfig()
	cfg.DropUnknown = 1.0 // always drop
	p, _ := newTestPeer(t, env, 10, cfg, []ids.PeerID{2})
	p.Receive(77, inviteMsg(p, 77, env, 100))
	if len(env.take()) != 0 {
		t.Error("dropped invitation produced a response")
	}
	if p.Stats().InvitesIgnored != 1 {
		t.Error("drop not counted as ignored")
	}
}

func TestVoterConsiderRateLimit(t *testing.T) {
	env := newFakeEnv(11)
	cfg := testConfig()
	cfg.ConsiderBurst = 1
	cfg.ConsiderRateFactor = 0.0001 // effectively no refill
	p, _ := newTestPeer(t, env, 10, cfg, []ids.PeerID{2, 3})
	au := p.AUs()[0]
	p.SeedGrade(au, 2, reputation.Even)
	p.SeedGrade(au, 3, reputation.Even)

	p.Receive(2, inviteMsg(p, 2, env, 100))
	if a := env.lastTo(2, MsgPollAck); a == nil {
		t.Fatal("first invitation should be considered")
	}
	p.Receive(3, inviteMsg(p, 3, env, 200))
	if a := env.lastTo(3, MsgPollAck); a != nil {
		t.Error("second invitation should be rate-capped silently")
	}
	if p.Stats().InvitesIgnored != 1 {
		t.Error("rate-capped invitation not counted")
	}
}

func TestUnsolicitedVoteIgnored(t *testing.T) {
	env := newFakeEnv(12)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2})
	// A vote for a poll this peer never called: the vote-flood defense.
	p.Receive(2, &Msg{
		Type: MsgVote, AU: p.AUs()[0], PollID: 999,
		Poller: p.ID(), Voter: 2,
		Vote: SimVote{NumBlocks: 4},
	})
	if len(env.take()) != 0 {
		t.Error("unsolicited vote produced a response")
	}
	if p.Stats().VotesReceived != 0 {
		t.Error("unsolicited vote counted")
	}
}

func TestDuplicateInvitationIgnored(t *testing.T) {
	env := newFakeEnv(13)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2})
	au := p.AUs()[0]
	p.SeedGrade(au, 2, reputation.Even)
	p.Receive(2, inviteMsg(p, 2, env, 100))
	first := len(env.take())
	p.Receive(2, inviteMsg(p, 2, env, 100)) // same poll ID
	if len(env.take()) != 0 || first == 0 {
		t.Error("duplicate invitation re-processed")
	}
}

func TestUnknownAUIgnored(t *testing.T) {
	env := newFakeEnv(14)
	p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2})
	m := inviteMsg(p, 2, env, 100)
	m.AU = 99
	p.Receive(2, m)
	if len(env.take()) != 0 {
		t.Error("invitation for unpreserved AU answered")
	}
}

// TestSynchronousRendezvousFitsVoterSchedule: with desynchronization off
// (the §5.2 ablation) a poller wants its vote within VoteWindow/8, while a
// voter schedules the vote no earlier than ProofTimeout from now. An idle
// voter must still accept the poller's own invitation, at the paper's
// operating point and at the demo one.
func TestSynchronousRendezvousFitsVoterSchedule(t *testing.T) {
	demo, err := DemoConfig(1500*time.Millisecond, 3, 5, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"paper", DefaultConfig()}, {"demo", demo}} {
		cfg := tc.cfg
		cfg.Desynchronize = false
		env := newFakeEnv(1)
		poller, _ := newTestPeer(t, env, 1, cfg, []ids.PeerID{2})
		voter, _ := newTestPeer(t, env, 2, cfg, []ids.PeerID{1})
		voter.SeedGrade(voter.AUs()[0], 1, reputation.Even)
		poller.Start()
		invite := env.lastTo(2, MsgPoll)
		for invite == nil && env.eng.Step() {
			invite = env.lastTo(2, MsgPoll)
		}
		if invite == nil {
			t.Fatalf("%s: the poller never invited the voter", tc.name)
		}
		voter.Receive(1, invite)
		if ack := env.lastTo(1, MsgPollAck); ack == nil || !ack.Accept {
			t.Errorf("%s: an idle voter answered %+v to a synchronous invitation", tc.name, ack)
		}
	}
}

// mbfEnv is fakeEnv verifying proofs the way a real node does: MBF walks
// priced at the verifier's own effort unit.
type mbfEnv struct {
	*fakeEnv
	re RealEffort
}

func (e *mbfEnv) VerifyProof(ctx []byte, p effort.Proof, minCost effort.Seconds) bool {
	return e.re.VerifyProof(ctx, p, minCost)
}

// TestVoterRefusesForgedUnitCost: a Poll whose MBF proof is one genuine walk
// claiming a billion seconds per walk is a bad proof — counted, refused, and
// no vote is scheduled — while an honest proof of the same requirement is
// accepted.
func TestVoterRefusesForgedUnitCost(t *testing.T) {
	fe := newFakeEnv(4)
	intro := effort.DefaultCostModel().PollEffortFor(testSpecN(4).Size, 4).Intro
	params := effort.DemoMBFParams()
	env := &mbfEnv{fakeEnv: fe, re: NewRealEffort(10, 1, params, intro/4)}
	p := newTestPeerOf(t, env, 10, testConfig(), []ids.PeerID{2, 3}, content.NewSimReplica(testSpecN(4), 10))
	au := p.AUs()[0]
	p.SeedGrade(au, 2, reputation.Even)
	p.SeedGrade(au, 3, reputation.Even)

	m := inviteMsg(p, 2, fe, 100)
	m.Proof, _ = effort.NewMBF(params).Generate(p.msgContext(m, "intro"), 1, 1e9)
	p.Receive(2, m)
	if ack := fe.lastTo(2, MsgPollAck); ack == nil || ack.Accept || ack.Refuse != RefuseBadEffort {
		t.Fatalf("forged proof: expected bad-effort refusal, got %+v", ack)
	}
	if got := p.Stats().BadProofs; got != 1 {
		t.Errorf("BadProofs = %d after a forged proof, want 1", got)
	}
	if n := p.Schedule().Len(); n != 0 {
		t.Errorf("forged proof scheduled %d vote(s)", n)
	}

	m = inviteMsg(p, 3, fe, 101)
	m.Proof = env.re.MakeProof(p.msgContext(m, "intro"), intro, nil)
	p.Receive(3, m)
	if ack := fe.lastTo(3, MsgPollAck); ack == nil || !ack.Accept {
		t.Fatalf("honest proof: expected acceptance, got %+v", ack)
	}
}
