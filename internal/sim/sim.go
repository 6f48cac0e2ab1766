// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in FIFO order of scheduling, which —
// combined with the deterministic prng package — makes whole simulation runs
// reproducible bit-for-bit. One run is one engine on one goroutine;
// parallelism comes from running many independent runs side by side.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Time is an instant on the simulated timeline, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is layout- and
// unit-compatible with time.Duration so the usual constants compose.
type Duration = time.Duration

// Convenient calendar units for preservation timescales. A month is fixed at
// 30 days and a year at 365 days, matching the coarse calendar the paper's
// evaluation uses (3-month poll intervals, 30-day recuperation periods).
const (
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
	Minute      Duration = time.Minute
	Hour        Duration = time.Hour
	Day         Duration = 24 * Hour
	Month       Duration = 30 * Day
	Year        Duration = 365 * Day
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as days and a wall-clock remainder, which reads
// well on multi-month preservation timelines.
func (t Time) String() string {
	d := int64(t) / int64(Day)
	rem := Duration(int64(t) % int64(Day))
	return fmt.Sprintf("d%d+%v", d, rem)
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never issued. An ID packs a slot index (low 32 bits, biased by
// one so the zero ID stays invalid) and a per-slot generation tag (high 32
// bits); a slot's generation bumps every time it is vacated, so a stale
// Cancel of a fired or already-cancelled event is a cheap, safe no-op.
type EventID uint64

// entry is one queued event. Entries are values: a move copies 24 bytes with
// no per-event allocation, and no bucket holds a pointer for the collector to
// scan. The closure lives beside the slot's generation in the dense index.
type entry struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	slot uint32
}

// slot is one event's record in the dense index: the closure of the live
// event, its position in its bucket (-1 while the slot is free) and the
// slot's current generation. Firing an event reads and writes all three, so
// they share a cache line.
type slot struct {
	fn  func()
	gen uint32
	pos int32
}

// The queue is a monotone radix queue on at. Its base is the last instant
// that fired. Events at the base sit in bucket 0 in seq order; a later event
// sits in the bucket named by the highest digitBits-bit digit in which its
// instant differs from the base, and by its own value of that digit. Every
// instant in a bucket precedes every instant in a higher one, and moving the
// base within the lowest non-empty bucket leaves every other entry's bucket
// valid. So an entry is touched again only when its bucket becomes the lowest
// non-empty one: the base moves to that bucket's earliest instant and its
// entries spread into strictly lower buckets. A timer months ahead costs a few
// such placements over its life instead of a sift through every pending entry
// each time any event fires.
const (
	digitBits = 4
	digitMax  = 1<<digitBits - 1
	// numBuckets is bucket 0 plus one bucket per digit position and nonzero
	// value: where a later instant first differs from the base, its digit is
	// the larger, so never zero.
	numBuckets = 1 + 64/digitBits*digitMax
	// keepCap is the largest backing array a bucket emptied by redistribution
	// keeps; a larger one is dropped for the bucket's first firstCap entries.
	// A far-future bucket fills once per burst of timers; keeping its array
	// would pin that burst's peak for the rest of the run, while dropping
	// small arrays too costs a reallocation on every refill.
	keepCap = 1024
	// firstCap is the capacity every bucket starts from, carved from one
	// array per engine: most buckets never hold more, so they cost no
	// allocation of their own.
	firstCap = 8
)

// Engine is a discrete-event simulation engine. It is not safe for concurrent
// use; a simulation is a single-goroutine computation by design, which is
// what makes runs deterministic.
type Engine struct {
	now     Time
	nextSeq uint64
	// base is the radix base. It moves only to an instant about to fire, so
	// it never passes now and nothing can be scheduled before it.
	base    Time
	buckets [numBuckets][]entry
	// arena backs every bucket's first firstCap entries.
	arena []entry
	// head indexes bucket 0's next entry to fire; entries before it fired.
	head int
	// full has bit b set while bucket b holds a pending entry.
	full [(numBuckets + 63) / 64]uint64
	// floor[b] is at most the earliest instant in bucket b > 0: placing an
	// entry lowers it, Cancel leaves it, so a Run that stops short of a large
	// bucket learns so without scanning it.
	floor [numBuckets]Time
	// Dense event index, by slot. A map was measured to dominate
	// schedule/cancel costs at large populations; the dense index makes both
	// O(1) with no hashing. bucket is apart from slots, which it would grow
	// by a word, and only Take reads it.
	slots     []slot
	bucket    []uint8
	freeSlots []uint32
	stopped   bool

	// Executed counts events that have fired, for progress reporting and
	// engine benchmarks.
	Executed uint64

	// Progress, when non-nil, is called every progressStride executed events
	// with the current clock and total executed count. Used for coarse
	// observability of long runs; the stride keeps it off the hot path.
	Progress       func(now Time, executed uint64)
	progressStride uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{arena: make([]entry, numBuckets*firstCap)}
	for b := range e.buckets {
		e.buckets[b] = e.small(b)
		e.floor[b] = math.MaxInt64
	}
	return e
}

// small returns bucket b's empty slice of the arena.
func (e *Engine) small(b int) []entry {
	return e.arena[b*firstCap : b*firstCap : (b+1)*firstCap]
}

// SetProgress installs a progress callback invoked every stride executed
// events. A nil fn or non-positive stride disables reporting.
func (e *Engine) SetProgress(stride uint64, fn func(now Time, executed uint64)) {
	if fn == nil || stride == 0 {
		e.Progress = nil
		e.progressStride = 0
		return
	}
	e.Progress = fn
	e.progressStride = stride
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at instant t. Scheduling in the past (before Now)
// panics: it always indicates a logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.nextSeq++
	var i uint32
	if n := len(e.freeSlots); n > 0 {
		i = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		i = uint32(len(e.slots))
		e.slots = append(e.slots, slot{pos: -1})
		e.bucket = append(e.bucket, 0)
	}
	e.slots[i].fn = fn
	e.place(entry{at: t, seq: e.nextSeq, slot: i})
	return EventID(e.slots[i].gen)<<32 | EventID(i+1)
}

// bucketOf returns the bucket an entry at t belongs in against the base.
func (e *Engine) bucketOf(t Time) int {
	x := uint64(t ^ e.base)
	if x == 0 {
		return 0
	}
	d := (bits.Len64(x) - 1) / digitBits
	return d*digitMax + int(uint64(t)>>(d*digitBits)&digitMax)
}

// place appends x to its bucket and records where it sits.
func (e *Engine) place(x entry) {
	b := e.bucketOf(x.at)
	e.bucket[x.slot] = uint8(b)
	e.slots[x.slot].pos = int32(len(e.buckets[b]))
	e.buckets[b] = append(e.buckets[b], x)
	e.full[b>>6] |= 1 << (b & 63)
	e.floor[b] = min(e.floor[b], x.at)
}

// lowest returns the lowest non-empty bucket, or -1 if nothing is pending.
func (e *Engine) lowest() int {
	for w, m := range e.full {
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// earliest returns the earliest instant in a non-empty bucket.
func earliest(q []entry) Time {
	m := q[0].at
	for _, x := range q[1:] {
		m = min(m, x.at)
	}
	return m
}

// settle reports whether the earliest pending event is due by until, and if
// so leaves it at bucket 0's head. Only then does the base move, to the
// instant about to fire: a model that stops short of until may still
// schedule anything from now on, which must not fall below the base.
func (e *Engine) settle(until Time) bool {
	b := e.lowest()
	if b <= 0 {
		return b == 0 && e.base <= until
	}
	if e.floor[b] > until {
		return false
	}
	q := e.buckets[b]
	m := earliest(q)
	if m > until {
		e.floor[b] = m
		return false
	}
	e.base = m
	e.emptied(b)
	for _, x := range q {
		e.place(x)
	}
	if cap(q) > keepCap {
		q = e.small(b)
	}
	e.buckets[b] = q[:0]
	if cur := e.buckets[0]; len(cur) > 1 {
		slices.SortFunc(cur, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
		for i, x := range cur {
			e.slots[x.slot].pos = int32(i)
		}
	}
	return true
}

// detach vacates slot i and bumps its generation so no ID can resolve to it
// again, and returns the closure it held.
func (e *Engine) detach(i uint32) func() {
	s := &e.slots[i]
	fn := s.fn
	*s = slot{gen: s.gen + 1, pos: -1}
	e.freeSlots = append(e.freeSlots, i)
	return fn
}

// After schedules fn to run d after the current instant. Negative durations
// are treated as zero.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling an event that already fired or
// was already cancelled is a no-op and returns false.
func (e *Engine) Cancel(id EventID) bool { return e.Take(id) != nil }

// Take removes a pending event and returns its closure, vacating the slot as
// firing does. It returns nil for an ID naming no pending event, including
// one from outside the program that names a free slot at its generation.
func (e *Engine) Take(id EventID) func() {
	i := uint32(id) - 1
	if uint32(id) == 0 || int(i) >= len(e.slots) || e.slots[i].gen != uint32(id>>32) || e.slots[i].pos < 0 {
		return nil
	}
	e.remove(int(e.bucket[i]), int(e.slots[i].pos))
	return e.detach(i)
}

// remove deletes the entry at index i of bucket b. Bucket 0 keeps seq order,
// so its tail shifts down; any other bucket is unordered and refills the hole
// with its last entry.
func (e *Engine) remove(b, i int) {
	q := e.buckets[b]
	n := len(q) - 1
	if b == 0 {
		copy(q[i:], q[i+1:])
		for _, x := range q[i:n] {
			e.slots[x.slot].pos--
		}
	} else {
		q[i] = q[n]
		e.slots[q[i].slot].pos = int32(i)
	}
	e.buckets[b] = q[:n]
	if n == 0 || b == 0 && n == e.head {
		e.emptied(b)
	}
}

// emptied marks bucket b empty. Bucket 0 rewinds to reuse its array; any
// other bucket's floor rises to no bound.
func (e *Engine) emptied(b int) {
	e.full[b>>6] &^= 1 << (b & 63)
	if b == 0 {
		e.buckets[0] = e.buckets[0][:0]
		e.head = 0
	} else {
		e.floor[b] = math.MaxInt64
	}
}

// Pending returns the number of events waiting to fire: every occupied slot
// holds exactly one.
func (e *Engine) Pending() int { return len(e.slots) - len(e.freeSlots) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// fire pops bucket 0's head, which settle put there, advances the clock and
// runs it. The slot is vacated first, so the event may schedule (reusing it)
// or Cancel its own, now stale, ID.
func (e *Engine) fire() {
	x := e.buckets[0][e.head]
	e.head++
	if e.head == len(e.buckets[0]) {
		e.emptied(0)
	}
	fn := e.detach(x.slot)
	e.now = x.at
	fn()
	e.Executed++
	if e.Progress != nil && e.Executed%e.progressStride == 0 {
		e.Progress(e.now, e.Executed)
	}
}

// Run executes events in timestamp order until the queue is empty or the
// clock would pass `until`. Events scheduled exactly at `until` do fire.
// It returns the number of events executed by this call.
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	var n uint64
	for !e.stopped && e.settle(until) {
		e.fire()
		n++
	}
	// Advance the clock to the horizon even if the queue drained early, so
	// time-integrated metrics cover the full window.
	if !e.stopped && e.now < until {
		e.now = until
	}
	return n
}

// Next returns the timestamp of the earliest pending event.
func (e *Engine) Next() (Time, bool) {
	switch b := e.lowest(); {
	case b < 0:
		return 0, false
	case b == 0:
		return e.base, true
	default:
		return earliest(e.buckets[b]), true
	}
}

// Step executes exactly one event if any is pending and returns whether one
// fired. Useful in unit tests that walk a state machine event by event.
func (e *Engine) Step() bool {
	if !e.settle(math.MaxInt64) {
		return false
	}
	e.fire()
	return true
}
