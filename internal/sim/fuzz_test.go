package sim

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkQueueInvariants asserts the radix queue is well formed and agrees with
// the dense slot index both ways: the base never passes the clock; every
// pending entry sits in the bucket its instant names against the base, never
// below the base, with bucket 0 holding exactly the base's instant in seq
// order; every queued entry's slot records its bucket and position and holds
// a closure; the occupancy bits match the buckets, and no bucket's floor is
// above its earliest entry; every free slot holds
// neither; each live ID resolves to its own queued slot; and the generation of
// each just-retired ID's slot has moved past it, so a stale Cancel can never
// reach the slot's next occupant (generations only grow).
func checkQueueInvariants(t *testing.T, e *Engine, live, retired []EventID) {
	t.Helper()
	if len(e.bucket) != len(e.slots) {
		t.Fatalf("slot index lengths differ: slots %d, bucket %d", len(e.slots), len(e.bucket))
	}
	if e.base > e.now {
		t.Fatalf("base %v passed now %v", e.base, e.now)
	}
	queued := 0
	for b, q := range e.buckets {
		first := 0
		if b == 0 {
			first = e.head
			if first > len(q) || first > 0 && first == len(q) {
				t.Fatalf("bucket 0 head %d with %d entries not rewound", first, len(q))
			}
		}
		if full := e.full[b>>6]&(1<<(b&63)) != 0; full != (len(q) > first) {
			t.Fatalf("bucket %d holds %d pending entries but its occupancy bit is %v", b, len(q)-first, full)
		}
		if b > 0 && len(q) > 0 && e.floor[b] > earliest(q) {
			t.Fatalf("bucket %d floor %v is above its earliest entry %v", b, e.floor[b], earliest(q))
		}
		for i := first; i < len(q); i++ {
			x := q[i]
			queued++
			if x.at < e.base {
				t.Fatalf("entry at %v sits below the base %v", x.at, e.base)
			}
			if got := refBucket(x.at, e.base); got != b {
				t.Fatalf("entry at %v sits in bucket %d, its key names bucket %d against base %v", x.at, b, got, e.base)
			}
			if b == 0 && i > first && x.seq <= q[i-1].seq {
				t.Fatalf("bucket 0 out of seq order at %d: %d after %d", i, x.seq, q[i-1].seq)
			}
			if int(x.slot) >= len(e.slots) {
				t.Fatalf("entry carries out-of-range slot %d", x.slot)
			}
			if gb, gp := e.bucket[x.slot], e.slots[x.slot].pos; int(gb) != b || gp != int32(i) {
				t.Fatalf("slot %d records bucket %d position %d, entry sits at bucket %d position %d", x.slot, gb, gp, b, i)
			}
			if e.slots[x.slot].fn == nil {
				t.Fatalf("queued slot %d has no closure", x.slot)
			}
		}
	}
	seen := make(map[uint32]bool, len(e.freeSlots))
	for _, s := range e.freeSlots {
		if int(s) >= len(e.slots) {
			t.Fatalf("free slot %d out of range", s)
		}
		if e.slots[s].fn != nil || e.slots[s].pos != -1 {
			t.Fatalf("free slot %d still occupied: pos %d, closure set %v", s, e.slots[s].pos, e.slots[s].fn != nil)
		}
		if seen[s] {
			t.Fatalf("slot %d free-listed twice", s)
		}
		seen[s] = true
	}
	if len(e.freeSlots)+queued != len(e.slots) {
		t.Fatalf("%d free + %d queued slots != %d total", len(e.freeSlots), queued, len(e.slots))
	}
	for _, id := range live {
		s := uint32(id) - 1
		if int(s) >= len(e.slots) || e.slots[s].gen != uint32(id>>32) || e.slots[s].pos < 0 {
			t.Fatalf("live event %d does not resolve to a queued slot", id)
		}
		if q, p := e.buckets[e.bucket[s]], e.slots[s].pos; int(p) >= len(q) || q[p].slot != s {
			t.Fatalf("live event %d does not resolve to its queued slot", id)
		}
	}
	for _, id := range retired {
		if s := uint32(id) - 1; e.slots[s].gen <= uint32(id>>32) {
			t.Fatalf("retired event %d: slot %d generation %d not bumped", id, s, e.slots[s].gen)
		}
	}
}

// refBucket is the bucket of an entry at t against base, found digit by
// digit from the top: the first digit where t differs from base, and t's
// value of it; 0 if t is base.
func refBucket(t, base Time) int {
	for d := 64/digitBits - 1; d >= 0; d-- {
		shift := d * digitBits
		if v := int(uint64(t) >> shift & digitMax); v != int(uint64(base)>>shift&digitMax) {
			return d*digitMax + v
		}
	}
	return 0
}

// leapTo is the horizon of the fuzz's leap op: bench/'s netsim probe drains
// its engine with Run(1<<62 - 1) and then keeps scheduling from there.
const leapTo = Time(1<<62) - 1

// FuzzEventQueue drives an Engine through arbitrary schedule/cancel/run/step
// interleavings against a naive model, asserting that events fire in
// (timestamp, FIFO-at-same-instant) order, cancellation semantics hold
// (including stale Cancels of fired and freshly reused slots, and forged IDs
// naming a free slot, staying no-ops), and the queue plus the slot index stay
// structurally sound throughout.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 10})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 1, 0, 2, 255})
	f.Add([]byte{0, 1, 3, 0, 0, 0, 1, 1, 0, 2, 2, 4, 3, 0, 3, 0})
	f.Add([]byte{0, 200, 0, 100, 0, 100, 0, 0, 1, 2, 2, 150, 0, 50, 2, 255, 2, 255})
	// Exercise slot reuse: schedule, run (vacates slot), schedule again (reuses
	// slot under a new generation), then stale-cancel the fired event.
	f.Add([]byte{0, 1, 2, 2, 0, 1, 1, 0, 2, 255, 3, 0})
	// Cancel out of the middle of several buckets, then drain.
	f.Add([]byte{0, 0, 0, 100, 0, 10, 0, 10, 0, 10, 0, 200, 0, 200, 0, 200, 0, 200, 0, 50, 1, 5, 2, 255})
	// Equal instants: three at +7 settle into bucket 0 together, which must
	// fire them in seq order; a step fires one, then one more joins at now.
	f.Add([]byte{0, 7, 0, 9, 0, 7, 0, 7, 3, 0, 0, 0, 2, 0, 2, 255})
	// Cancel inside bucket 0: after a step fires the first of four events at
	// +3, cancel the second, then the last, of the three still queued there.
	f.Add([]byte{0, 3, 0, 3, 0, 3, 0, 3, 3, 0, 1, 0, 1, 1, 2, 0})
	// Run(until) stops short of the next pending instant (+200) with the
	// clock at +100; then schedule between now and it, and step.
	f.Add([]byte{0, 200, 5, 3, 2, 100, 0, 50, 0, 0, 3, 0, 3, 0, 2, 255})
	// The same after cancelling the earliest of one bucket (+195 beside
	// +205), whose floor then lags: the run to +200 scans the bucket, finds
	// nothing due and must still leave the base alone.
	f.Add([]byte{0, 195, 0, 205, 1, 0, 2, 200, 0, 0, 0, 3, 3, 0, 2, 255})
	// Far timers across high digits, a cancel among them, then a leap to
	// near 1<<62 and scheduling from there.
	f.Add([]byte{5, 0, 5, 255, 5, 16, 0, 1, 1, 2, 6, 0, 0, 1, 0, 255, 5, 3, 2, 0, 6, 9, 3, 0})
	// A forged ID: the first of two events fires, and the ID its free slot
	// would carry next is cancelled and taken.
	f.Add([]byte{0, 1, 0, 5, 2, 1, 4, 0, 2, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine()
		type modelEvent struct {
			at    Time
			label int // scheduling order, the FIFO tie-break
			id    EventID
		}
		byOrder := func(a, b modelEvent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.label, b.label))
		}
		var (
			pending []modelEvent
			retired []EventID // IDs whose events fired or were cancelled
			fired   []int
			nextLab int
		)
		schedule := func(at Time) {
			label := nextLab
			nextLab++
			id := e.At(at, func() { fired = append(fired, label) })
			pending = append(pending, modelEvent{at: at, label: label, id: id})
		}
		runTo := func(until Time) {
			var due []modelEvent
			rest := pending[:0:0]
			for _, ev := range pending {
				if ev.at <= until {
					due = append(due, ev)
				} else {
					rest = append(rest, ev)
				}
			}
			slices.SortFunc(due, byOrder)
			pending = rest
			want := make([]int, len(due))
			for i, ev := range due {
				want[i] = ev.label
				retired = append(retired, ev.id)
			}
			fired = fired[:0]
			e.Run(until)
			if !slices.Equal(fired, want) {
				t.Fatalf("Run(%v) fired %v, want %v", until, fired, want)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, ops[i+1]
			retiredBefore := len(retired)
			switch op {
			case 0: // schedule arg ns from now
				schedule(e.Now().Add(Duration(arg)))
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
				runTo(e.Now().Add(Duration(arg)))
			case 3: // single step
				want := []int(nil)
				if len(pending) > 0 {
					k := 0
					for j := range pending {
						if byOrder(pending[j], pending[k]) < 0 {
							k = j
						}
					}
					want = append(want, pending[k].label)
					retired = append(retired, pending[k].id)
					pending = append(pending[:k], pending[k+1:]...)
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
				before := queued(e)
				if e.Cancel(id) || e.Take(id) != nil {
					t.Fatalf("stale Cancel or Take(%d) succeeded", id)
				}
				// Forged: the retired ID's slot at the generation it carries
				// now, which names no event while the slot is free.
				s := uint32(id) - 1
				if forged := EventID(e.slots[s].gen)<<32 | EventID(s+1); !slices.ContainsFunc(pending, func(ev modelEvent) bool { return ev.id == forged }) {
					if e.Cancel(forged) || e.Take(forged) != nil {
						t.Fatalf("forged Cancel or Take(%#x) of a free slot succeeded", forged)
					}
				}
				if queued(e) != before {
					t.Fatalf("stale Cancel(%d) changed the queued count %d -> %d", id, before, queued(e))
				}
			case 5: // schedule far ahead, into the high digits
				schedule(e.Now().Add(Duration(arg+1) << 40))
			case 6: // leap to just short of 1<<62
				runTo(max(e.Now(), leapTo-Time(arg)))
			}
			if queued(e) != len(pending) {
				t.Fatalf("%d events queued, model has %d", queued(e), len(pending))
			}
			base := e.base
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
			if e.base != base {
				t.Fatalf("Next() moved the base from %v to %v", base, e.base)
			}
			live := make([]EventID, len(pending))
			for k, ev := range pending {
				live[k] = ev.id
			}
			checkQueueInvariants(t, e, live, retired[retiredBefore:])
		}
	})
}

// TestQueueMatchesSortedOrder schedules 20 000 events at random instants:
// the current one, network hops, whole hours and days ahead that many events
// share, and arbitrary instants years ahead. Some are scheduled and cancelled
// from inside firing events, others between now and the next pending instant
// after a run stopped short of it. What fires must be exactly the uncancelled
// events in (at, seq) order.
func TestQueueMatchesSortedOrder(t *testing.T) {
	const total = 20_000
	rnd := rand.New(rand.NewPCG(29, 1))
	e := NewEngine()
	type event struct {
		at  Time
		seq int
		id  EventID
	}
	var (
		all       []event
		cancelled = make(map[int]bool)
		fired     []int
		schedule  func(at Time)
	)
	instant := func() Time {
		now := e.Now()
		switch rnd.IntN(5) {
		case 0:
			return now
		case 1:
			return now.Add(Duration(rnd.Int64N(int64(30 * Millisecond))))
		case 2:
			return (now/Time(Hour) + 1 + Time(rnd.IntN(48))) * Time(Hour)
		case 3:
			return (now/Time(Day) + 1 + Time(rnd.IntN(90))) * Time(Day)
		default:
			return now.Add(Duration(rnd.Int64N(int64(3 * Year))))
		}
	}
	// cancelRecent cancels one of the last events scheduled, most of which
	// are still pending.
	cancelRecent := func() {
		if k := len(all) - 1 - rnd.IntN(min(len(all), 256)); e.Cancel(all[k].id) {
			cancelled[k] = true
		}
	}
	schedule = func(at Time) {
		seq := len(all)
		id := e.At(at, func() {
			fired = append(fired, seq)
			if len(all) < total && rnd.IntN(2) == 0 {
				schedule(instant())
			}
			if rnd.IntN(4) == 0 {
				cancelRecent()
			}
		})
		all = append(all, event{at: at, seq: seq, id: id})
	}
	for len(all) < total/2 {
		schedule(instant())
	}
	for queued(e) > 0 || len(all) < total {
		for len(all) < total && rnd.IntN(4) == 0 {
			schedule(instant())
		}
		if rnd.IntN(2) == 0 {
			cancelRecent()
		}
		e.Run(e.Now().Add(Duration(rnd.Int64N(int64(Hour)))))
		if next, ok := e.Next(); ok && next > e.Now() && len(all) < total {
			schedule(e.Now() + Time(rnd.Int64N(int64(next-e.Now()))))
		}
		if rnd.IntN(64) == 0 {
			e.Run(e.Now().Add(5 * Year))
		}
	}
	var want []int
	slices.SortFunc(all, func(a, b event) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
	shared := 0
	for i, ev := range all {
		if !cancelled[ev.seq] {
			want = append(want, ev.seq)
		}
		if i > 0 && ev.at == all[i-1].at {
			shared++
		}
	}
	if len(all) != total || len(cancelled) < total/20 || shared < total/10 {
		t.Fatalf("scheduled %d events, cancelled %d, %d at an instant already taken: the test lost its reach", len(all), len(cancelled), shared)
	}
	if !slices.Equal(fired, want) {
		i := 0
		for i < min(len(fired), len(want)) && fired[i] == want[i] {
			i++
		}
		t.Fatalf("fired %d events, want %d; first difference at position %d", len(fired), len(want), i)
	}
}

// TestQueueStorageAndAllocs holds a burst of 200 000 timers, all due within
// one second a day ahead, while batches of 32 events due within a millisecond
// are scheduled and fired: that steady state must allocate nothing, so the
// buckets a batch fills keep their arrays. Draining the hold must then leave
// the queue retaining at most twice its peak of live entries. The burst
// passes through a few buckets whole on its way down; were their arrays kept,
// the drained queue would retain about 2.4 times the burst.
func TestQueueStorageAndAllocs(t *testing.T) {
	const hold = 200_000
	rnd := rand.New(rand.NewPCG(29, 2))
	e := NewEngine()
	nop := func() {}
	for range hold {
		e.At(Time(Day)+Time(rnd.Int64N(int64(Second))), nop)
	}
	const batch = 32
	step := func() {
		for range batch {
			e.After(Duration(rnd.Int64N(int64(Millisecond))), nop)
		}
		for range batch {
			if !e.Step() {
				t.Fatal("nothing fired")
			}
		}
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state schedule and fire allocated %.3f times per event", allocs/batch)
	}
	peak := queued(e) + batch
	if n := e.Run(math.MaxInt64); n != hold {
		t.Fatalf("drained %d events, want %d", n, hold)
	}
	retained := 0
	for _, q := range e.buckets {
		retained += cap(q)
	}
	if retained > 2*peak {
		t.Errorf("drained queue retains %d entries of capacity, over 2x its peak of %d live", retained, peak)
	}
	t.Logf("peak %d live entries, %d retained after the drain", peak, retained)
}
