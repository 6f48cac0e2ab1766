// Package sched implements a peer's task schedule of promises to perform
// effort — computing votes for others and running its own polls.
//
// The schedule is the over-commitment defense of §5.1 of the paper: "peers
// maintain a task schedule of their promises to perform effort ... If the
// effort of computing the vote solicited by an incoming Poll message cannot
// be accommodated in the schedule, the invitation is refused."
//
// Time is abstract int64 nanoseconds so the same scheduler serves the
// discrete-event simulator (virtual time) and the real node (wall time).
package sched

import (
	"fmt"
	"sort"
	"time"

	"lockss/internal/sim"
)

// Time is the one clock type, sim.Time, under the name the protocol and the
// real node use for it: nanoseconds since an arbitrary epoch (simulation
// start for the simulator, the Unix epoch for a node).
type Time = sim.Time

// Duration is a span in nanoseconds; aliasing time.Duration keeps protocol
// configuration interoperable with both the simulator's clock and the real
// node's wall clock.
type Duration = time.Duration

// TaskID identifies a reservation. The zero TaskID is never issued.
type TaskID uint64

// Task is a committed interval of compute on the peer's single audit
// resource.
type Task struct {
	ID    TaskID
	Start Time
	End   Time
	// Label describes the commitment ("vote au=3 poll=17", "eval au=3").
	Label string
}

// Background is busy time owed to lower simulation layers (the paper's
// 600-AU layering, §6.3), cut into consecutive buckets BucketWidth
// nanoseconds wide. Bucket(k) returns the intervals that start in
// [k·width, (k+1)·width), sorted by Start. They may overlap one another and
// the schedule's commitments, and may run past their bucket's end. Schedule
// checks read the same buckets over and over, so Bucket should be pure and
// cheap to repeat.
type Background interface {
	BucketWidth() Duration
	Bucket(k int64) []Task
}

// Schedule tracks non-overlapping committed intervals plus optional
// background load. It is not safe for concurrent use.
type Schedule struct {
	tasks  []Task // sorted by Start, non-overlapping
	nextID TaskID

	// Background, if non-nil, is extra busy time that slot searches and
	// BusyFraction count but Reserve does not check.
	Background Background

	// CommittedTotal accumulates the total committed duration ever
	// reserved, for utilization metrics.
	CommittedTotal Duration
	// CommittedCount counts reservations ever made.
	CommittedCount uint64
}

// New returns an empty schedule.
func New() *Schedule { return &Schedule{} }

// Len returns the number of live reservations.
func (s *Schedule) Len() int { return len(s.tasks) }

// GC drops reservations that ended at or before now. Call periodically (the
// peer does, on poll boundaries) to keep the schedule small.
func (s *Schedule) GC(now Time) {
	i := 0
	for i < len(s.tasks) && s.tasks[i].End <= now {
		i++
	}
	if i > 0 {
		s.tasks = append(s.tasks[:0], s.tasks[i:]...)
	}
}

// cursor walks committed and background intervals together in Start order,
// without copying either: commitments from the first one that ends after the
// query's start, background buckets only as the walk reaches them.
type cursor struct {
	tasks  []Task // committed, not yet yielded
	bg     Background
	width  int64
	k      int64  // next background bucket to read
	bucket []Task // bucket k-1, not yet yielded
}

func (s *Schedule) cursor(from Time) cursor {
	i := sort.Search(len(s.tasks), func(i int) bool { return s.tasks[i].End > from })
	c := cursor{tasks: s.tasks[i:], bg: s.Background}
	if c.bg != nil {
		// The walk starts at the bucket holding from (truncating toward
		// zero, so before time 0 the bucket after it), so a task of an
		// earlier bucket that runs into the window is never seen:
		// background load is understated near bucket edges. Layered
		// results depend on it; the fix, which moves them, is an open item
		// in ROADMAP.md.
		c.width = int64(c.bg.BucketWidth())
		c.k = int64(from) / c.width
	}
	return c
}

// next yields the unvisited interval with the smallest Start, or nil if that
// Start is not before limit. Buckets starting at or after limit are not read.
func (c *cursor) next(limit Time) *Task {
	for len(c.bucket) == 0 && c.bg != nil {
		at := Time(c.k * c.width)
		if at >= limit || len(c.tasks) > 0 && c.tasks[0].Start <= at {
			break
		}
		c.bucket = c.bg.Bucket(c.k)
		c.k++
	}
	var t *Task
	switch {
	case len(c.bucket) > 0 && (len(c.tasks) == 0 || c.bucket[0].Start < c.tasks[0].Start):
		t, c.bucket = &c.bucket[0], c.bucket[1:]
	case len(c.tasks) > 0:
		t, c.tasks = &c.tasks[0], c.tasks[1:]
	default:
		return nil
	}
	if t.Start >= limit {
		return nil
	}
	return t
}

// FindSlot returns the earliest start >= earliest such that a task of length
// d fits entirely before deadline, honoring existing commitments and
// background load. ok is false if no slot exists.
func (s *Schedule) FindSlot(earliest Time, d Duration, deadline Time) (start Time, ok bool) {
	if d <= 0 {
		return earliest, true
	}
	if earliest+Time(d) > deadline {
		return 0, false
	}
	// Scanning raw intervals in Start order finds the same slot as scanning
	// their union: skip what ends by cur, stop at the first that starts
	// after the candidate window, otherwise move past it.
	cur := earliest
	c := s.cursor(earliest)
	for t := c.next(cur + Time(d)); t != nil; t = c.next(cur + Time(d)) {
		if t.End <= cur {
			continue
		}
		cur = t.End
		if cur+Time(d) > deadline {
			return 0, false
		}
	}
	return cur, true
}

// Reserve commits [start, start+d) with the given label. It fails if the
// interval overlaps an existing commitment (background load is advisory for
// slot search but does not block explicit reservations, mirroring the
// layering technique's one-way coupling).
func (s *Schedule) Reserve(start Time, d Duration, label string) (TaskID, error) {
	if d <= 0 {
		return 0, fmt.Errorf("sched: non-positive duration %d", d)
	}
	end := start + Time(d)
	idx := sort.Search(len(s.tasks), func(i int) bool { return s.tasks[i].Start >= start })
	if idx > 0 && s.tasks[idx-1].End > start {
		return 0, fmt.Errorf("sched: %q overlaps %q", label, s.tasks[idx-1].Label)
	}
	if idx < len(s.tasks) && s.tasks[idx].Start < end {
		return 0, fmt.Errorf("sched: %q overlaps %q", label, s.tasks[idx].Label)
	}
	s.nextID++
	t := Task{ID: s.nextID, Start: start, End: end, Label: label}
	s.tasks = append(s.tasks, Task{})
	copy(s.tasks[idx+1:], s.tasks[idx:])
	s.tasks[idx] = t
	s.CommittedTotal += Duration(d)
	s.CommittedCount++
	return t.ID, nil
}

// ReserveSlot finds a slot and reserves it in one step.
func (s *Schedule) ReserveSlot(earliest Time, d Duration, deadline Time, label string) (TaskID, Time, bool) {
	start, ok := s.FindSlot(earliest, d, deadline)
	if !ok {
		return 0, 0, false
	}
	id, err := s.Reserve(start, d, label)
	if err != nil {
		// FindSlot guarantees no overlap with commitments; an error here is
		// a programming bug worth failing loudly on.
		panic(err)
	}
	return id, start, true
}

// Release cancels a reservation (a deserting poller's slot, for example).
// Releasing an unknown ID is a no-op returning false.
func (s *Schedule) Release(id TaskID) bool {
	for i, t := range s.tasks {
		if t.ID == id {
			s.CommittedTotal -= Duration(t.End - t.Start)
			s.tasks = append(s.tasks[:i], s.tasks[i+1:]...)
			return true
		}
	}
	return false
}

// BusyFraction reports the fraction of [from, to) covered by commitments and
// background load.
func (s *Schedule) BusyFraction(from, to Time) float64 {
	if to <= from {
		return 0
	}
	// Sum the union exactly: each interval adds only what lies past the
	// high-water mark of those before it. Every interval yielded starts
	// before to and ends after it starts, so hi > mark leaves a positive
	// span.
	var busy Duration
	mark := from
	c := s.cursor(from)
	for t := c.next(to); t != nil; t = c.next(to) {
		if hi := min(t.End, to); hi > mark {
			busy += Duration(hi - max(t.Start, mark))
			mark = hi
		}
	}
	return float64(busy) / float64(to-from)
}
