package node

import (
	"slices"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// timerTap records the timer firings a node reports. Its methods run on the
// actor loop, so the test reads fired there too.
type timerTap struct{ fired []protocol.TimerID }

func (tp *timerTap) MsgIn(ids.PeerID, []byte, *protocol.Msg, sched.Time) {}
func (tp *timerTap) TimerFired(id protocol.TimerID, now sched.Time) {
	tp.fired = append(tp.fired, id)
}
func (tp *timerTap) MsgOut(ids.PeerID, *protocol.Msg, sched.Time) {}
func (tp *timerTap) DamageNoticed(content.AUID, int, sched.Time)  {}

// newClockNode builds a lone node preserving one AU whose reference list has
// no addresses, so every timer it runs descends from peer.Start's or the
// test's own.
func newClockNode(t *testing.T, tap protocol.EnvTap) *Node {
	t.Helper()
	n, err := New(Config{
		ID: 1, Listen: "127.0.0.1:0", Protocol: demoProtocolConfig(), Costs: effort.DemoCostModel(),
		MBF: effort.DemoMBFParams(), Seed: 7, Tap: tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := content.AUSpec{ID: 1, Name: "au-clock", Size: 64 << 10, BlockSize: 32 << 10}
	if err := n.AddAU(content.NewRealReplica(spec, 1), []ids.PeerID{2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTimerAndClockContract drives n.env through Inspect on a started node:
// protocol time stands still for a whole turn and never runs backwards, a
// firing timer sees exactly its own instant, timers fire in deadline order
// with ties in arming order, a timer cancelled before it falls due never
// runs, a turn that begins after a timer fell due runs after it, and timers
// armed before the actor loop exists — as peer.Start arms its own, at the
// bootstrap instant — still fire.
func TestTimerAndClockContract(t *testing.T) {
	tap := &timerTap{}
	n := newClockNode(t, tap)
	e := &n.env
	var readings []sched.Time // protocol time at every callback, in execution order
	mine := map[protocol.TimerID]bool{}
	early := sched.Time(-1)
	mine[e.After(5*time.Millisecond, func() { early = e.Now() })] = true
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	turn := func(fn func()) {
		t.Helper()
		if !n.Inspect(func(*protocol.Peer) { readings = append(readings, e.Now()); fn() }) {
			t.Fatal("node stopped")
		}
	}

	turn(func() {
		a := e.Now()
		time.Sleep(2 * time.Millisecond)
		if b := e.Now(); b != a {
			t.Errorf("Now moved within one turn: %v, then %v", a, b)
		}
	})

	type firing struct {
		label   string
		at, due sched.Time
	}
	var fired []firing
	turn(func() {
		t0 := e.Now()
		arm := func(label string, d time.Duration, then func()) protocol.TimerID {
			id := e.After(d, func() {
				readings = append(readings, e.Now())
				fired = append(fired, firing{label, e.Now(), t0 + sched.Time(d)})
				then()
			})
			mine[id] = true
			return id
		}
		nop := func() {}
		arm("d", 30*time.Millisecond, nop)
		arm("a", 10*time.Millisecond, nop)
		arm("c", 20*time.Millisecond, nop)
		arm("b", 10*time.Millisecond, nop)
		// Cancelled 15 ms before it falls due by a timer that fires first
		// however late the loop runs, and one cancelled in its arming turn.
		late := arm("x", 25*time.Millisecond, nop)
		arm("k", 10*time.Millisecond, func() {
			if !e.Cancel(late) {
				t.Error("Cancel of a timer not yet due returned false")
			}
		})
		if !e.Cancel(arm("y", 15*time.Millisecond, nop)) {
			t.Error("Cancel in the arming turn returned false")
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		if time.Now().After(deadline) {
			t.Fatal("the armed timers never fired")
		}
		time.Sleep(5 * time.Millisecond)
		turn(func() { done = len(fired) > 0 && fired[len(fired)-1].label == "d" })
	}
	var order []string
	turn(func() {
		for _, f := range fired {
			order = append(order, f.label)
			if f.at != f.due {
				t.Errorf("timer %s saw Now %v, its instant is %v", f.label, f.at, f.due)
			}
		}
	})
	if want := []string{"a", "b", "k", "c", "d"}; !slices.Equal(order, want) {
		t.Errorf("timers fired in order %v, want %v", order, want)
	}

	// A turn runs at the instant the loop takes it up: a closure posted
	// after a timer fell due runs after that timer, at a time no earlier
	// than its posting. A loop that ran the closure before reading the
	// clock would hand it the previous turn's instant.
	for i := 0; i < 3; i++ {
		ran := false
		turn(func() { e.After(time.Millisecond, func() { ran = true }) })
		time.Sleep(2 * time.Millisecond)
		posted := n.clock()
		turn(func() {
			if now := e.Now(); now < posted || !ran {
				t.Errorf("round %d: a closure posted at %v ran at %v, its due timer fired: %v", i, posted, now, ran)
			}
		})
	}

	// peer.Start armed its poll's timers before the loop existed; one of
	// them firing shows the loop picked them up.
	for started := false; !started; {
		if time.Now().After(deadline) {
			t.Fatal("no timer armed by peer.Start ever fired")
		}
		time.Sleep(5 * time.Millisecond)
		turn(func() {
			started = slices.ContainsFunc(tap.fired, func(id protocol.TimerID) bool { return !mine[id] })
		})
	}
	turn(func() {
		if want := n.Epoch() + sched.Time(5*time.Millisecond); early != want {
			t.Errorf("timer armed before Start saw Now %v, want Epoch+5ms %v", early, want)
		}
		if !slices.IsSorted(readings) {
			t.Errorf("protocol time ran backwards across turns: %v", readings)
		}
	})
}

// TestPeerStartsAtEpoch: two nodes built alike start their peers at their
// own bootstrap instants, so the first poll each schedules lies the same
// distance past its Epoch — however long Start and the loop took to run. A
// trace header's StartT relies on this.
func TestPeerStartsAtEpoch(t *testing.T) {
	var offsets [2]sched.Duration
	for i := range offsets {
		n := newClockNode(t, nil)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if !n.Inspect(func(p *protocol.Peer) {
			offsets[i] = sched.Duration(p.AUInfos()[0].PollDeadline - n.Epoch())
		}) {
			t.Fatal("node stopped")
		}
		n.Stop()
	}
	if offsets[0] != offsets[1] {
		t.Errorf("first poll deadlines lie %v and %v past their nodes' Epochs", offsets[0], offsets[1])
	}
}
