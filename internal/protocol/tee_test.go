package protocol

import (
	"fmt"
	"reflect"
	"testing"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/sched"
)

// orderObserver records every callback it receives into a shared log, so a
// test can assert the tee's fan-out order. It optionally implements
// SpanObserver via spanOrderObserver.
type orderObserver struct {
	name string
	log  *[]string
}

func (o orderObserver) note(ev string) { *o.log = append(*o.log, o.name+":"+ev) }

func (o orderObserver) PollConcluded(p ids.PeerID, au content.AUID, pollID uint64, out Outcome, started, now sched.Time) {
	o.note(fmt.Sprintf("concluded/%d", pollID))
}
func (o orderObserver) Alarm(p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	o.note("alarm")
}
func (o orderObserver) RepairApplied(p ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	o.note(fmt.Sprintf("repair/%d", block))
}
func (o orderObserver) VoteSupplied(v, p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	o.note("vote-supplied")
}

type spanOrderObserver struct{ orderObserver }

func (o spanOrderObserver) PollStarted(p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	o.note(fmt.Sprintf("started/%d", pollID))
}
func (o spanOrderObserver) VoteSolicited(p, v ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	o.note("solicited")
}
func (o spanOrderObserver) VoteReceived(p, v ids.PeerID, au content.AUID, pollID uint64, solicitedAt, now sched.Time) {
	o.note("vote-received")
}
func (o spanOrderObserver) TallyStarted(p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	o.note("tally")
}
func (o spanOrderObserver) RepairRequested(p, v ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	o.note("repair-req")
}

// TestTeeObserverFanOut pins the tee contract: every Observer callback
// reaches every non-nil observer in argument order, and SpanObserver
// callbacks reach exactly the observers that implement the interface —
// still in argument order.
func TestTeeObserverFanOut(t *testing.T) {
	var log []string
	a := spanOrderObserver{orderObserver{"a", &log}}
	b := orderObserver{"b", &log} // Observer only
	c := spanOrderObserver{orderObserver{"c", &log}}
	tee := TeeObserver(a, nil, b, c)

	tee.PollConcluded(1, 2, 7, OutcomeSuccess, 0, 10)
	tee.Alarm(1, 2, 7, 11)
	tee.RepairApplied(1, 2, 7, 3, 12)
	tee.VoteSupplied(1, 2, 2, 7, 13)
	want := []string{
		"a:concluded/7", "b:concluded/7", "c:concluded/7",
		"a:alarm", "b:alarm", "c:alarm",
		"a:repair/3", "b:repair/3", "c:repair/3",
		"a:vote-supplied", "b:vote-supplied", "c:vote-supplied",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("Observer fan-out:\n got %v\nwant %v", log, want)
	}

	log = log[:0]
	span, ok := tee.(SpanObserver)
	if !ok {
		t.Fatal("tee of span observers does not implement SpanObserver")
	}
	span.PollStarted(1, 2, 7, 20)
	span.VoteSolicited(1, 3, 2, 7, 21)
	span.VoteReceived(1, 3, 2, 7, 21, 22)
	span.TallyStarted(1, 2, 7, 23)
	span.RepairRequested(1, 3, 2, 7, 0, 24)
	want = []string{
		"a:started/7", "c:started/7",
		"a:solicited", "c:solicited",
		"a:vote-received", "c:vote-received",
		"a:tally", "c:tally",
		"a:repair-req", "c:repair-req",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("SpanObserver fan-out:\n got %v\nwant %v", log, want)
	}
}
