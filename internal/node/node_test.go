package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// testObserver records poll conclusions and repairs thread-safely.
type testObserver struct {
	mu        sync.Mutex
	succeeded int
	other     int
	repairs   int
}

func (o *testObserver) PollConcluded(p ids.PeerID, au content.AUID, pollID uint64, out protocol.Outcome, started, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if out == protocol.OutcomeSuccess {
		o.succeeded++
	} else {
		o.other++
	}
}
func (o *testObserver) Alarm(ids.PeerID, content.AUID, uint64, sched.Time) {}
func (o *testObserver) RepairApplied(p ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.repairs++
}
func (o *testObserver) VoteSupplied(ids.PeerID, ids.PeerID, content.AUID, uint64, sched.Time) {}

func (o *testObserver) snapshot() (succ, other, repairs int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.succeeded, o.other, o.repairs
}

// demoProtocolConfig compresses the protocol's preservation timescales to
// sub-second units so an audit-and-repair round completes in a test.
func demoProtocolConfig() protocol.Config {
	cfg, err := protocol.DemoConfig(1500*time.Millisecond, 3, 5, 32<<10)
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestSenderOf checks role-based sender inference.
func TestSenderOf(t *testing.T) {
	m := &protocol.Msg{Type: protocol.MsgVote, Poller: 1, Voter: 2}
	if senderOf(m) != 2 {
		t.Errorf("vote sender = %v, want voter", senderOf(m))
	}
	m.Type = protocol.MsgPoll
	if senderOf(m) != 1 {
		t.Errorf("poll sender = %v, want poller", senderOf(m))
	}
	for _, typ := range []protocol.MsgType{
		protocol.MsgPollAck, protocol.MsgRepair,
	} {
		if senderOf(&protocol.Msg{Type: typ, Poller: 1, Voter: 2}) != 2 {
			t.Errorf("%v sender should be voter", typ)
		}
	}
	for _, typ := range []protocol.MsgType{
		protocol.MsgPollProof, protocol.MsgRepairRequest, protocol.MsgEvaluationReceipt,
	} {
		if senderOf(&protocol.Msg{Type: typ, Poller: 1, Voter: 2}) != 1 {
			t.Errorf("%v sender should be poller", typ)
		}
	}
	_ = fmt.Sprintf // keep fmt for future debug
}
