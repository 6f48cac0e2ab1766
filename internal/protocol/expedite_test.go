package protocol

import (
	"testing"

	"lockss/internal/sched"
)

// TestRaiseAuditPriorityExpeditesNextPoll: an expedited AU's next poll
// concludes a quarter interval out instead of a full one, the request is
// consumed, and unknown AUs are ignored.
func TestRaiseAuditPriorityExpeditesNextPoll(t *testing.T) {
	env := newFakeEnv(1)
	p, _ := newTestPeer(t, env, 1, testConfig(), nil)
	p.Start()
	st := p.au(1)
	if st.poll == nil {
		t.Fatal("no poll after Start")
	}

	p.RaiseAuditPriority(99) // not preserved; must be a no-op
	p.RaiseAuditPriority(1)
	if !st.expedite {
		t.Fatal("expedite flag not set")
	}

	now := env.Now()
	p.concludePoll(st, st.poll, OutcomeInquorate)
	if st.expedite {
		t.Error("expedite request not consumed")
	}
	want := now + sched.Time(p.cfg.PollInterval/4)
	got := st.poll.deadline
	if got != want {
		t.Errorf("expedited deadline = %v, want %v", got, want)
	}

	// Without a raised priority the following poll reverts to the fixed
	// cadence: one interval after the (expedited) deadline.
	p.concludePoll(st, st.poll, OutcomeInquorate)
	if st.poll.deadline != want+sched.Time(p.cfg.PollInterval) {
		t.Errorf("next deadline = %v, want fixed cadence %v", st.poll.deadline, want+sched.Time(p.cfg.PollInterval))
	}
}

// TestExpediteSurvivesLatePoll: a poll that concluded behind schedule (its
// deadline plus an interval is already in the past) must still honor a
// raised audit priority — the late-poll clamp must not swallow it.
func TestExpediteSurvivesLatePoll(t *testing.T) {
	env := newFakeEnv(1)
	p, _ := newTestPeer(t, env, 1, testConfig(), nil)
	p.Start()
	st := p.au(1)
	p.RaiseAuditPriority(1)
	// Force the just-concluded poll to look ancient.
	st.poll.deadline = -sched.Time(2 * p.cfg.PollInterval)
	now := env.Now()
	p.concludePoll(st, st.poll, OutcomeInquorate)
	want := now + sched.Time(p.cfg.PollInterval/4)
	if st.poll.deadline != want {
		t.Errorf("late expedited deadline = %v, want %v", st.poll.deadline, want)
	}
}
