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

// Schedule tracks non-overlapping committed intervals plus an optional
// background load hook. It is not safe for concurrent use.
type Schedule struct {
	tasks  []Task // sorted by Start, non-overlapping
	nextID TaskID

	// Background, if non-nil, reports extra busy intervals in [from, to)
	// owed to lower simulation layers (the paper's 600-AU layering, §6.3).
	// Returned intervals must be sorted and non-overlapping.
	Background func(from, to Time) []Task

	// CommittedTotal accumulates the total committed duration ever
	// reserved, for utilization metrics.
	CommittedTotal Duration
	// CommittedCount counts reservations ever made.
	CommittedCount uint64

	// mergeScratch backs merged's union timeline; slot searches under
	// background load (layered runs) call merged on every schedule check, so
	// the union is assembled in place instead of allocating per query.
	mergeScratch []Task
}

// New returns an empty schedule.
func New() *Schedule { return &Schedule{} }

// Len returns the number of live reservations.
func (s *Schedule) Len() int { return len(s.tasks) }

// Tasks returns a copy of the live reservations in start order.
func (s *Schedule) Tasks() []Task {
	out := make([]Task, len(s.tasks))
	copy(out, s.tasks)
	return out
}

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

// merged returns the union of committed and background intervals within
// [from, to), sorted and non-overlapping.
func (s *Schedule) merged(from, to Time) []Task {
	var bg []Task
	if s.Background != nil {
		bg = s.Background(from, to)
	}
	if len(bg) == 0 {
		return s.tasks
	}
	all := append(s.mergeScratch[:0], s.tasks...)
	all = append(all, bg...)
	s.mergeScratch = all
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	// Coalesce overlaps so gap-finding sees one busy timeline.
	out := all[:0]
	for _, t := range all {
		if n := len(out); n > 0 && t.Start <= out[n-1].End {
			if t.End > out[n-1].End {
				out[n-1].End = t.End
			}
			continue
		}
		out = append(out, t)
	}
	return out
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
	cur := earliest
	for _, t := range s.merged(earliest, deadline) {
		if t.End <= cur {
			continue
		}
		if t.Start >= cur+Time(d) {
			break // gap before this task fits
		}
		// Task overlaps the candidate window; move past it.
		cur = t.End
		if cur+Time(d) > deadline {
			return 0, false
		}
	}
	if cur+Time(d) > deadline {
		return 0, false
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
	var busy Duration
	for _, t := range s.merged(from, to) {
		lo, hi := t.Start, t.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			busy += Duration(hi - lo)
		}
	}
	return float64(busy) / float64(to-from)
}

// Validate checks the internal invariant (sorted, non-overlapping) and
// returns an error describing the first violation. Property tests call it.
func (s *Schedule) Validate() error {
	for i := 1; i < len(s.tasks); i++ {
		a, b := s.tasks[i-1], s.tasks[i]
		if b.Start < a.Start {
			return fmt.Errorf("sched: tasks out of order at %d", i)
		}
		if b.Start < a.End {
			return fmt.Errorf("sched: %q overlaps %q", b.Label, a.Label)
		}
	}
	for _, t := range s.tasks {
		if t.End <= t.Start {
			return fmt.Errorf("sched: empty task %q", t.Label)
		}
	}
	return nil
}
