package sim

import (
	"slices"
	"testing"
)

// checkHeapInvariants asserts the queue is a well-formed d-ary min-heap
// whose entries and the dense slot index agree both ways: every queued
// entry's slot records its queue position and holds a closure, every free
// slot holds neither, each live ID resolves to its own queued slot, and the
// generation of each just-retired ID's slot has moved past it, so a stale
// Cancel can never reach the slot's next occupant (generations only grow).
func checkHeapInvariants(t *testing.T, e *Engine, live, retired []EventID) {
	t.Helper()
	if len(e.fns) != len(e.gens) || len(e.pos) != len(e.gens) {
		t.Fatalf("slot index lengths differ: fns %d, pos %d, gens %d", len(e.fns), len(e.pos), len(e.gens))
	}
	for i, x := range e.queue {
		if int(x.slot) >= len(e.fns) {
			t.Fatalf("entry %d carries out-of-range slot %d", i, x.slot)
		}
		if got := e.pos[x.slot]; got != int32(i) {
			t.Fatalf("slot %d records queue position %d, entry sits at %d", x.slot, got, i)
		}
		if e.fns[x.slot] == nil {
			t.Fatalf("queued slot %d has no closure", x.slot)
		}
		if i > 0 && x.less(e.queue[(i-1)/arity]) {
			t.Fatalf("heap order violated between %d and its parent", i)
		}
	}
	seen := make(map[uint32]bool, len(e.freeSlots))
	for _, s := range e.freeSlots {
		if int(s) >= len(e.fns) {
			t.Fatalf("free slot %d out of range", s)
		}
		if e.fns[s] != nil || e.pos[s] != -1 {
			t.Fatalf("free slot %d still occupied: pos %d, closure set %v", s, e.pos[s], e.fns[s] != nil)
		}
		if seen[s] {
			t.Fatalf("slot %d free-listed twice", s)
		}
		seen[s] = true
	}
	if len(e.freeSlots)+len(e.queue) != len(e.fns) {
		t.Fatalf("%d free + %d queued slots != %d total", len(e.freeSlots), len(e.queue), len(e.fns))
	}
	for _, id := range live {
		s := uint32(id) - 1
		if int(s) >= len(e.gens) || e.gens[s] != uint32(id>>32) || e.pos[s] < 0 || int(e.pos[s]) >= len(e.queue) || e.queue[e.pos[s]].slot != s {
			t.Fatalf("live event %d does not resolve to its queued slot", id)
		}
	}
	for _, id := range retired {
		if s := uint32(id) - 1; e.gens[s] <= uint32(id>>32) {
			t.Fatalf("retired event %d: slot %d generation %d not bumped", id, s, e.gens[s])
		}
	}
}

// FuzzEventHeap drives an Engine through arbitrary schedule/cancel/run/step
// interleavings against a naive model, asserting that events fire in
// (timestamp, FIFO-at-same-instant) order, cancellation semantics hold
// (including stale Cancels of fired and freshly reused slots staying no-ops),
// and the heap plus the slot index stay structurally sound throughout.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 10})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 1, 0, 2, 255})
	f.Add([]byte{0, 1, 3, 0, 0, 0, 1, 1, 0, 2, 2, 4, 3, 0, 3, 0})
	f.Add([]byte{0, 200, 0, 100, 0, 100, 0, 0, 1, 2, 2, 150, 0, 50, 2, 255, 2, 255})
	// Exercise slot reuse: schedule, run (vacates slot), schedule again (reuses
	// slot under a new generation), then stale-cancel the fired event.
	f.Add([]byte{0, 1, 2, 2, 0, 1, 1, 0, 2, 255, 3, 0})
	// Cancel from the middle of a 4-ary heap: the last entry (at 50, under
	// the root's second child) refills the hole under the first child (at
	// 100), so it must move up, not only down.
	f.Add([]byte{0, 0, 0, 100, 0, 10, 0, 10, 0, 10, 0, 200, 0, 200, 0, 200, 0, 200, 0, 50, 1, 5, 2, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine()
		type modelEvent struct {
			at    Time
			label int // scheduling order, the FIFO tie-break
			id    EventID
		}
		var (
			pending []modelEvent
			retired []EventID // IDs whose events fired or were cancelled
			fired   []int
			nextLab int
		)
		schedule := func(delta byte) {
			at := e.Now().Add(Duration(delta))
			label := nextLab
			nextLab++
			id := e.At(at, func() { fired = append(fired, label) })
			pending = append(pending, modelEvent{at: at, label: label, id: id})
		}
		expectUpTo := func(until Time) []int {
			var due []modelEvent
			rest := pending[:0:0]
			for _, ev := range pending {
				if ev.at <= until {
					due = append(due, ev)
				} else {
					rest = append(rest, ev)
				}
			}
			slices.SortStableFunc(due, func(a, b modelEvent) int {
				switch {
				case a.at != b.at:
					return int(a.at - b.at)
				default:
					return a.label - b.label
				}
			})
			pending = rest
			out := make([]int, len(due))
			for i, ev := range due {
				out[i] = ev.label
				retired = append(retired, ev.id)
			}
			return out
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, ops[i+1]
			retiredBefore := len(retired)
			switch op {
			case 0: // schedule arg ns from now
				schedule(arg)
			case 1: // cancel the arg-th pending event (twice: second is a no-op)
				if len(pending) == 0 {
					continue
				}
				k := int(arg) % len(pending)
				ev := pending[k]
				if !e.Cancel(ev.id) {
					t.Fatalf("Cancel(%d) of a pending event returned false", ev.id)
				}
				if e.Cancel(ev.id) {
					t.Fatalf("second Cancel(%d) returned true", ev.id)
				}
				retired = append(retired, ev.id)
				pending = append(pending[:k], pending[k+1:]...)
			case 2: // run to a horizon
				until := e.Now().Add(Duration(arg))
				want := expectUpTo(until)
				fired = fired[:0]
				e.Run(until)
				if !slices.Equal(fired, want) {
					t.Fatalf("Run(%v) fired %v, want %v", until, fired, want)
				}
			case 3: // single step
				want := []int(nil)
				if len(pending) > 0 {
					earliest := pending[0]
					for _, ev := range pending[1:] {
						if ev.at < earliest.at || (ev.at == earliest.at && ev.label < earliest.label) {
							earliest = ev
						}
					}
					want = append(want, earliest.label)
					for k, ev := range pending {
						if ev.id == earliest.id {
							retired = append(retired, ev.id)
							pending = append(pending[:k], pending[k+1:]...)
							break
						}
					}
				}
				fired = fired[:0]
				stepped := e.Step()
				if stepped != (len(want) > 0) {
					t.Fatalf("Step() = %v with %d pending", stepped, len(want))
				}
				if !slices.Equal(fired, want) {
					t.Fatalf("Step fired %v, want %v", fired, want)
				}
			case 4: // stale-cancel the arg-th retired ID: must be a safe no-op
				if len(retired) == 0 {
					continue
				}
				id := retired[int(arg)%len(retired)]
				before := e.Pending()
				if e.Cancel(id) {
					t.Fatalf("stale Cancel(%d) returned true", id)
				}
				if e.Pending() != before {
					t.Fatalf("stale Cancel(%d) changed Pending %d -> %d", id, before, e.Pending())
				}
			}
			if e.Pending() != len(pending) {
				t.Fatalf("Pending() = %d, model has %d", e.Pending(), len(pending))
			}
			if at, ok := e.Next(); ok != (len(pending) > 0) {
				t.Fatalf("Next() ok = %v with %d pending", ok, len(pending))
			} else if ok {
				min := pending[0].at
				for _, ev := range pending[1:] {
					if ev.at < min {
						min = ev.at
					}
				}
				if at != min {
					t.Fatalf("Next() = %v, model min %v", at, min)
				}
			}
			live := make([]EventID, len(pending))
			for k, ev := range pending {
				live[k] = ev.id
			}
			checkHeapInvariants(t, e, live, retired[retiredBefore:])
		}
	})
}
