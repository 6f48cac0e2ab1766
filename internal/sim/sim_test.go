package sim

import (
	"testing"
)

// queued counts the events waiting to fire: every occupied slot holds one.
func queued(e *Engine) int { return len(e.slots) - len(e.freeSlots) }

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events fired out of order: %v", got)
	}
	if e.Now() != 100 {
		t.Errorf("clock should advance to horizon, got %v", e.Now())
	}
}

func TestFIFOSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Error("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Error("double Cancel returned true")
	}
	e.Run(100)
	if fired {
		t.Error("cancelled event fired")
	}
}

// TestCancelSelfWhileFiring: a firing event's slot is already vacated, so
// cancelling its own ID is a stale no-op and touches no other event.
func TestCancelSelfWhileFiring(t *testing.T) {
	e := NewEngine()
	var self EventID
	cancelled, other := true, false
	self = e.At(10, func() { cancelled = e.Cancel(self) })
	e.At(10, func() { other = true })
	e.Run(100)
	if cancelled {
		t.Error("an event cancelled itself while firing")
	}
	if !other {
		t.Error("a self-cancel removed another event")
	}
}

// TestCancelSiblingSameInstant: an event may cancel one scheduled for the
// same instant after it, which then never fires, while later ones still do.
func TestCancelSiblingSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	var sibling EventID
	e.At(10, func() {
		got = append(got, 0)
		if !e.Cancel(sibling) {
			t.Error("Cancel of a pending same-instant sibling returned false")
		}
	})
	sibling = e.At(10, func() { got = append(got, 1) })
	e.At(10, func() { got = append(got, 2) })
	e.Run(100)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("fired %v, want [0 2]", got)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	var idz []EventID
	for i := 0; i < 20; i++ {
		i := i
		idz = append(idz, e.At(Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel the odd ones.
	for i := 1; i < 20; i += 2 {
		e.Cancel(idz[i])
	}
	e.Run(1000)
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Errorf("cancelled event %d fired", v)
		}
	}
}

// TestForgedIDRefused: an ID naming a vacated slot at the generation the
// slot now carries was never issued — the slot is free — so Cancel and Take
// refuse it and leave the queue alone. Vacated by firing and by Take alike.
func TestForgedIDRefused(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 0) })
	taken := e.At(15, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.At(30, func() { got = append(got, 3) })
	e.Run(10) // slot 0 fires: free at generation 1
	if fn := e.Take(taken); fn == nil {
		t.Fatal("Take of a pending event returned nil")
	} else if fn(); len(got) != 2 || got[1] != 1 {
		t.Fatalf("Take returned the wrong closure: fired %v", got)
	}
	for _, forged := range []EventID{1<<32 | 1, taken + 1<<32} {
		if e.Cancel(forged) {
			t.Errorf("Cancel(%#x) of a free slot returned true", forged)
		}
		if e.Take(forged) != nil {
			t.Errorf("Take(%#x) of a free slot returned a closure", forged)
		}
		if queued(e) != 2 {
			t.Fatalf("refused ID %#x changed the queued count to %d, want 2", forged, queued(e))
		}
	}
	if e.Take(taken) != nil {
		t.Error("second Take of the same event returned a closure")
	}
	e.Run(100)
	if want := []int{0, 1, 2, 3}; len(got) != len(want) || got[2] != 2 || got[3] != 3 {
		t.Errorf("fired %v, want %v", got, want)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(10, chain)
		}
	}
	e.After(10, chain)
	e.Run(1000)
	if count != 5 {
		t.Errorf("chained events fired %d times, want 5", count)
	}
	if e.Now() != 1000 {
		t.Errorf("clock at %v", e.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(50, func() { fired++ })
	e.At(150, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Errorf("fired %d events before horizon 100, want 1", fired)
	}
	if queued(e) != 1 {
		t.Errorf("pending %d, want 1", queued(e))
	}
	e.Run(200)
	if fired != 2 {
		t.Errorf("fired %d after second run, want 2", fired)
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(100, func() { fired = true })
	e.Run(100)
	if !fired {
		t.Error("event exactly at the horizon should fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(200)
}

func TestStep(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	if !e.Step() || fired != 1 || e.Now() != 10 {
		t.Errorf("first Step wrong: fired=%d now=%v", fired, e.Now())
	}
	if !e.Step() || fired != 2 {
		t.Error("second Step wrong")
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5, func() { fired = true })
	e.Run(0)
	if !fired {
		t.Error("negative After should fire immediately")
	}
}

func TestTimeHelpers(t *testing.T) {
	ts := Time(0).Add(3 * Day).Add(5 * Hour)
	if Duration(ts) != 3*Day+5*Hour {
		t.Errorf("Add wrong")
	}
	if s := ts.String(); s != "d3+5h0m0s" {
		t.Errorf("String() = %q", s)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run(100)
	if e.Executed != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed)
	}
}
