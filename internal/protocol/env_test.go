package protocol

import (
	"slices"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/sched"
	"lockss/internal/sim"
)

// fakeEnv drives a Peer deterministically in unit tests: timers run on a
// sim.Engine, sends are recorded, proofs are symbolic.
type fakeEnv struct {
	eng  *sim.Engine
	rnd  *prng.Source
	sent []sentMsg
}

type sentMsg struct {
	to ids.PeerID
	m  *Msg
}

func newFakeEnv(seed uint64) *fakeEnv {
	return &fakeEnv{eng: sim.NewEngine(), rnd: prng.New(seed)}
}

func (e *fakeEnv) Now() sched.Time { return sched.Time(e.eng.Now()) }

func (e *fakeEnv) After(d sched.Duration, fn func()) TimerID {
	return TimerID(e.eng.After(d, fn))
}

func (e *fakeEnv) Cancel(t TimerID) bool {
	return e.eng.Cancel(sim.EventID(t))
}

func (e *fakeEnv) Rand() *prng.Source { return e.rnd }

// Send records a copy of m: the peer sends from one reused record, and Env
// may keep nothing behind it.
func (e *fakeEnv) Send(to ids.PeerID, m *Msg) {
	c := *m
	c.Nominations = slices.Clone(m.Nominations)
	e.sent = append(e.sent, sentMsg{to: to, m: &c})
}

func (e *fakeEnv) MakeProof(ctx []byte, cost effort.Seconds, receipt *effort.Receipt) effort.Proof {
	if receipt != nil {
		*receipt = effort.SimReceiptFor(ctx, cost)
	}
	return effort.SimProof{Effort: cost, Genuine: true}
}

func (e *fakeEnv) VerifyProof(ctx []byte, p effort.Proof, minCost effort.Seconds) bool {
	sp, ok := p.(effort.SimProof)
	return ok && sp.Genuine && sp.Effort >= minCost-1e-9
}

func (e *fakeEnv) EvalReceipt(ctx []byte, p effort.Proof) (effort.Receipt, bool) {
	sp, ok := p.(effort.SimProof)
	if !ok || !sp.Genuine {
		return effort.Receipt{}, false
	}
	return effort.SimReceiptFor(ctx, sp.Effort), true
}

// take drains and returns recorded sends.
func (e *fakeEnv) take() []sentMsg {
	out := e.sent
	e.sent = nil
	return out
}

// lastTo returns the last message sent to a peer, or nil.
func (e *fakeEnv) lastTo(to ids.PeerID, typ MsgType) *Msg {
	for i := len(e.sent) - 1; i >= 0; i-- {
		if e.sent[i].to == to && e.sent[i].m.Type == typ {
			return e.sent[i].m
		}
	}
	return nil
}

// testConfig compresses timescales for unit tests.
func testConfig() Config {
	c := DefaultConfig()
	c.Quorum = 3
	c.InnerCircle = 5
	c.MaxDisagree = 1
	c.OuterCircle = 2
	c.Nominations = 3
	c.PollInterval = 100 * time.Hour
	c.VoteWindow = 10 * time.Hour
	c.AckTimeout = time.Hour
	c.ProofTimeout = time.Hour
	c.VoteSlack = time.Hour
	c.ReceiptSlack = 2 * time.Hour
	c.RepairTimeout = time.Hour
	c.Refractory = 2 * time.Hour
	c.GradeDecay = 1000 * time.Hour
	c.FrivolousRepairProb = 0
	c.RefListTarget = 6
	c.RefListMax = 10
	c.ConsiderBurst = 100 // effectively unlimited unless a test tightens it
	c.BlockSize = 1024
	return c
}

// testSpecN builds a small AU spec.
func testSpecN(blocks int) content.AUSpec {
	return content.AUSpec{ID: 1, Name: "au", Size: int64(blocks) * 1024, BlockSize: 1024}
}

// newTestPeer builds a peer with one symbolic AU and the given reference
// list, without starting polls.
func newTestPeer(t *testing.T, env *fakeEnv, id ids.PeerID, cfg Config, refs []ids.PeerID) (*Peer, *content.SimReplica) {
	replica := content.NewSimReplica(testSpecN(4), uint64(id))
	return newTestPeerOf(t, env, id, cfg, refs, replica), replica
}

// newTestPeerOf builds a peer holding the given replica.
func newTestPeerOf(t *testing.T, env Env, id ids.PeerID, cfg Config, refs []ids.PeerID, replica content.Replica) *Peer {
	t.Helper()
	costs := effort.DefaultCostModel()
	p, err := New(id, &cfg, &costs, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddAU(replica, refs); err != nil {
		t.Fatal(err)
	}
	return p
}
