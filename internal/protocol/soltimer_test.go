package protocol

import (
	"reflect"
	"slices"
	"testing"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/sched"
	"lockss/internal/sim"
)

// solTimerEnv wraps fakeEnv to audit one AU's solicitation timers. It tells
// them from the poll's other timers by their callback's code pointer, the
// one every pollState.solFire shares (solFireCode), so a stale timer of a
// concluded poll counts as one too.
type solTimerEnv struct {
	*fakeEnv
	t     *testing.T
	p     *Peer
	au    content.AUID
	solFn uintptr
	live  map[TimerID]armedAt

	firing bool
	rearms int // solicitation timers armed during the current fire
	fires  int
	// multi counts fires that ran more than one action.
	multi int
}

type armedAt struct{ at, when sched.Time }

// solFireCode returns the code pointer of pollState.solFire, read from a poll
// that a throwaway peer started: a closure's code is per inlined call site,
// so it must come from the poll records startPoll draws.
func solFireCode(t *testing.T) uintptr {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2})
	h.p.Start()
	return reflect.ValueOf(h.p.au(h.au).poll.solFire).Pointer()
}

func (e *solTimerEnv) After(d sched.Duration, fn func()) TimerID {
	if reflect.ValueOf(fn).Pointer() != e.solFn {
		return e.fakeEnv.After(d, fn)
	}
	if e.firing {
		e.rearms++
	}
	var id TimerID
	id = e.fakeEnv.After(d, func() {
		delete(e.live, id)
		e.fire(id, fn)
	})
	now := e.Now()
	e.live[id] = armedAt{at: now + sched.Time(max(d, 0)), when: now}
	return id
}

func (e *solTimerEnv) Cancel(t TimerID) bool {
	delete(e.live, t)
	return e.fakeEnv.Cancel(t)
}

// fire runs a solicitation timer's callback and checks that something was
// due, that exactly the due solicitations acted, that their messages went
// out in invitation order, and that the timer was re-armed at most once.
func (e *solTimerEnv) fire(id TimerID, fn func()) {
	e.fires++
	poll := e.p.au(e.au).poll
	if poll == nil || poll.solTimer != id {
		e.t.Errorf("solicitation timer %d fired, but it is not the live poll's", id)
		fn()
		return
	}
	now := e.Now()
	before := slices.Clone(poll.sols)
	var due []int
	for i := range before {
		if before[i].due <= now {
			due = append(due, i)
		}
	}
	if len(due) == 0 {
		e.t.Errorf("solicitation timer fired at %v with nothing due", now)
	}
	if len(due) > 1 {
		e.multi++
	}
	sent := len(e.sent)
	e.firing, e.rearms = true, 0
	fn()
	e.firing = false
	if e.rearms > 1 {
		e.t.Errorf("one fire at %v armed the timer %d times", now, e.rearms)
	}
	for i := range before {
		acted := poll.sols[i].state != before[i].state
		if isDue := slices.Contains(due, i); acted != isDue {
			e.t.Errorf("fire at %v: solicitation %d due=%v acted=%v", now, i, isDue, acted)
		}
	}
	last := -1
	for _, s := range e.sent[sent:] {
		i := poll.solOf(s.to)
		if i <= last {
			e.t.Errorf("fire at %v sent to solicitation %d after %d", now, i, last)
		}
		last = i
	}
}

// check asserts that the live poll, if any, has exactly one solicitation
// timer pending when it has something due, none otherwise, and that the
// timer is the poll's own, pending for the earliest due.
func (e *solTimerEnv) check() {
	e.t.Helper()
	next := noDue
	poll := e.p.au(e.au).poll
	if poll != nil {
		for i := range poll.sols {
			next = min(next, poll.sols[i].due)
		}
	}
	if next == noDue {
		if len(e.live) != 0 {
			e.t.Fatalf("at %v: %d solicitation timers pending with nothing due", e.Now(), len(e.live))
		}
		return
	}
	if len(e.live) != 1 {
		e.t.Fatalf("at %v: %d solicitation timers pending, want 1", e.Now(), len(e.live))
	}
	a, ok := e.live[poll.solTimer]
	if !ok {
		e.t.Fatalf("at %v: the pending solicitation timer is not the poll's", e.Now())
	}
	if poll.solAt != next || a.at != max(next, a.when) {
		e.t.Fatalf("at %v: timer pending for %v (solAt %v), earliest due %v", e.Now(), a.at, poll.solAt, next)
	}
}

// TestPollHoldsOneSolicitationTimer drives polls through every solicitation
// transition (send, refusal, ack, proof slot, vote, ack timeout, vote
// timeout, the outer circle) and checks after every event that a live poll
// holds exactly one solicitation timer, at its earliest due, and none once
// it has concluded. Without desynchronization every invitation falls due at
// once, so one fire runs many actions and their order is checked.
func TestPollHoldsOneSolicitationTimer(t *testing.T) {
	for _, desync := range []bool{true, false} {
		t.Run(map[bool]string{true: "desynchronized", false: "synchronous"}[desync], func(t *testing.T) {
			cfg := pollerConfig()
			cfg.Desynchronize = desync
			cfg.OuterCircle = 2
			cfg.Introductions = false
			h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
			h.voters[3].refuse = true
			h.voters[4].silent = true
			h.voters[5].noVote = true
			strangers := []ids.PeerID{20, 21}
			for i, v := range strangers {
				h.voters[v] = &scriptedVoter{replica: content.NewSimReplica(testSpecN(4), uint64(200+i))}
			}
			for _, v := range h.voters {
				v.noms = strangers
			}
			e := &solTimerEnv{
				fakeEnv: h.env, t: t, p: h.p, au: h.au,
				solFn: solFireCode(t),
				live:  make(map[TimerID]armedAt),
			}
			h.p.env = e

			h.p.Start()
			if n := len(h.p.au(h.au).poll.sols); n != cfg.InnerCircle {
				t.Fatalf("the first poll invited %d, want %d", n, cfg.InnerCircle)
			}
			e.check()
			step := func() bool {
				for _, s := range h.env.take() {
					h.reply(s)
				}
				if !h.env.eng.Step() {
					return false
				}
				e.check()
				return true
			}
			end := h.env.eng.Now().Add(3 * sim.Duration(cfg.PollInterval))
			for h.env.eng.Now() < end && step() {
			}
			h.p.Drain()
			for h.p.ActivePolls() > 0 && step() {
			}
			if h.p.ActivePolls() != 0 || len(e.live) != 0 {
				t.Fatalf("%d polls and %d solicitation timers left after draining", h.p.ActivePolls(), len(e.live))
			}

			// With effort balancing on, every vote followed a proof slot.
			st := h.p.Stats()
			if !cfg.EffortBalancing || st.AcksTimedOut == 0 || st.VotesTimedOut == 0 || st.VotesReceived == 0 {
				t.Errorf("not every transition ran: %+v", st)
			}
			invited := make(map[ids.PeerID]int)
			for _, s := range h.invites {
				invited[s.to]++
			}
			if invited[3] < 2 || invited[20]+invited[21] == 0 {
				t.Errorf("the refusing voter was invited %d times, the outer circle %d times", invited[3], invited[20]+invited[21])
			}
			if e.fires == 0 || !desync && e.multi == 0 {
				t.Errorf("%d fires, %d with more than one action due", e.fires, e.multi)
			}
		})
	}
}
