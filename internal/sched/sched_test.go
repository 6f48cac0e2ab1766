package sched

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"lockss/internal/prng"
)

func TestReserveAndFind(t *testing.T) {
	s := New()
	// Reserve [100, 200).
	id, err := s.Reserve(100, 100, "a")
	if err != nil || id == 0 {
		t.Fatalf("Reserve: %v", err)
	}
	// A 50-long task from 0 fits before it.
	start, ok := s.FindSlot(0, 50, 1000)
	if !ok || start != 0 {
		t.Errorf("FindSlot = %v,%v; want 0,true", start, ok)
	}
	// A 150-long task from 0 must go after [100,200).
	start, ok = s.FindSlot(0, 150, 1000)
	if !ok || start != 200 {
		t.Errorf("FindSlot(150) = %v,%v; want 200,true", start, ok)
	}
	// No room before deadline 300 for a 150-long task starting at 90.
	_, ok = s.FindSlot(90, 150, 300)
	if ok {
		t.Error("FindSlot should fail when nothing fits before the deadline")
	}
}

func TestReserveOverlapFails(t *testing.T) {
	s := New()
	if _, err := s.Reserve(100, 100, "a"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ start, d Time }{
		{50, 100}, {150, 10}, {199, 5}, {100, 100}, {0, 101},
	} {
		if _, err := s.Reserve(c.start, Duration(c.d), "x"); err == nil {
			t.Errorf("Reserve(%d,%d) should overlap", c.start, c.d)
		}
	}
	// Adjacent intervals are fine.
	if _, err := s.Reserve(200, 50, "after"); err != nil {
		t.Errorf("adjacent reserve failed: %v", err)
	}
	if _, err := s.Reserve(0, 100, "before"); err != nil {
		t.Errorf("adjacent reserve failed: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRelease(t *testing.T) {
	s := New()
	id, _ := s.Reserve(100, 100, "a")
	if !s.Release(id) {
		t.Error("Release returned false")
	}
	if s.Release(id) {
		t.Error("double Release returned true")
	}
	if _, err := s.Reserve(100, 100, "b"); err != nil {
		t.Errorf("slot not freed: %v", err)
	}
}

func TestGC(t *testing.T) {
	s := New()
	s.Reserve(0, 10, "old")
	s.Reserve(20, 10, "mid")
	s.Reserve(100, 10, "new")
	s.GC(50)
	if s.Len() != 1 {
		t.Errorf("GC left %d tasks, want 1", s.Len())
	}
	if s.tasks[0].Label != "new" {
		t.Errorf("wrong survivor: %v", s.tasks[0].Label)
	}
}

func TestBusyFraction(t *testing.T) {
	s := New()
	s.Reserve(0, 50, "a")
	s.Reserve(100, 50, "b")
	if f := s.BusyFraction(0, 200); f != 0.5 {
		t.Errorf("BusyFraction = %v, want 0.5", f)
	}
	if f := s.BusyFraction(0, 50); f != 1.0 {
		t.Errorf("BusyFraction = %v, want 1", f)
	}
	if f := s.BusyFraction(50, 100); f != 0 {
		t.Errorf("BusyFraction = %v, want 0", f)
	}
}

func TestBackgroundLoad(t *testing.T) {
	s := New()
	// Permanently busy [0, 1000).
	s.Background = testLoad{width: 1000, buckets: map[int64][]Task{0: {{Start: 0, End: 1000, Label: "bg"}}}}
	start, ok := s.FindSlot(0, 10, 2000)
	if !ok || start != 1000 {
		t.Errorf("FindSlot with background = %v,%v; want 1000,true", start, ok)
	}
	// Background does not block explicit reservation (advisory only).
	if _, err := s.Reserve(500, 10, "forced"); err != nil {
		t.Errorf("background blocked explicit reserve: %v", err)
	}
	if f := s.BusyFraction(0, 1000); f != 1.0 {
		t.Errorf("BusyFraction with background = %v", f)
	}
}

func TestFindSlotZeroDuration(t *testing.T) {
	s := New()
	start, ok := s.FindSlot(42, 0, 100)
	if !ok || start != 42 {
		t.Errorf("zero-duration slot = %v,%v", start, ok)
	}
}

func TestReserveSlot(t *testing.T) {
	s := New()
	s.Reserve(0, 100, "head")
	id, start, ok := s.ReserveSlot(0, 50, 1000, "tail")
	if !ok || start != 100 || id == 0 {
		t.Errorf("ReserveSlot = %v,%v,%v", id, start, ok)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

// TestPropertyRandomOps drives random reserve/release/gc operations and
// checks the schedule invariant plus non-overlap of found slots.
func TestPropertyRandomOps(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := prng.New(seed)
		s := New()
		var live []TaskID
		now := Time(0)
		for op := 0; op < 300; op++ {
			switch r.Intn(5) {
			case 0, 1: // reserve via FindSlot
				d := Duration(r.Intn(100) + 1)
				deadline := now + Time(r.Intn(5000)+200)
				if id, start, ok := s.ReserveSlot(now, d, deadline, "t"); ok {
					if start < now || start+Time(d) > deadline {
						return false
					}
					live = append(live, id)
				}
			case 2: // direct reserve at a random spot (may fail)
				start := now + Time(r.Intn(2000))
				if id, err := s.Reserve(start, Duration(r.Intn(50)+1), "d"); err == nil {
					live = append(live, id)
				}
			case 3: // release random
				if len(live) > 0 {
					i := r.Intn(len(live))
					s.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 4: // advance time and GC
				now += Time(r.Intn(200))
				s.GC(now)
			}
			if err := s.Validate(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyFindSlotRespectsCommitments: a found slot never overlaps an
// existing commitment.
func TestPropertyFindSlotRespectsCommitments(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := prng.New(seed)
		s := New()
		type iv struct{ lo, hi Time }
		var ivs []iv
		for i := 0; i < 30; i++ {
			start := Time(r.Intn(3000))
			d := Duration(r.Intn(80) + 1)
			if _, err := s.Reserve(start, d, "x"); err == nil {
				ivs = append(ivs, iv{start, start + Time(d)})
			}
		}
		for q := 0; q < 50; q++ {
			earliest := Time(r.Intn(3000))
			d := Duration(r.Intn(120) + 1)
			deadline := earliest + Time(r.Intn(3000)+1)
			start, ok := s.FindSlot(earliest, d, deadline)
			if !ok {
				continue
			}
			end := start + Time(d)
			if start < earliest || end > deadline {
				return false
			}
			for _, v := range ivs {
				if start < v.hi && v.lo < end {
					return false // overlap
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestCommittedAccounting(t *testing.T) {
	s := New()
	s.Reserve(0, 10, "a")
	s.Reserve(20, 30, "b")
	if s.CommittedTotal != 40 || s.CommittedCount != 2 {
		t.Errorf("accounting: total=%v count=%v", s.CommittedTotal, s.CommittedCount)
	}
	id, _ := s.Reserve(100, 5, "c")
	s.Release(id)
	if s.CommittedTotal != 40 {
		t.Errorf("release should refund total, got %v", s.CommittedTotal)
	}
}

// testLoad is a fixed Background: bucket k's tasks, sorted by Start.
type testLoad struct {
	width   Duration
	buckets map[int64][]Task
}

func (l testLoad) BucketWidth() Duration { return l.width }
func (l testLoad) Bucket(k int64) []Task { return l.buckets[k] }

// referenceMerged is how the schedule once assembled its timeline on every
// query: the background tasks of buckets from/width … (to-1)/width that
// overlap [from, to), copied beside every commitment, sorted by Start and
// coalesced into one sorted, non-overlapping list.
func referenceMerged(s *Schedule, from, to Time) []Task {
	var bg []Task
	if s.Background != nil {
		w := int64(s.Background.BucketWidth())
		for k := int64(from) / w; k <= int64(to-1)/w; k++ {
			for _, t := range s.Background.Bucket(k) {
				if t.End <= from || t.Start >= to {
					continue
				}
				bg = append(bg, t)
			}
		}
	}
	if len(bg) == 0 {
		return s.tasks
	}
	all := append(append([]Task(nil), s.tasks...), bg...)
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	out := all[:0]
	for _, t := range all {
		if n := len(out); n > 0 && t.Start <= out[n-1].End {
			out[n-1].End = max(out[n-1].End, t.End)
			continue
		}
		out = append(out, t)
	}
	return out
}

// referenceFindSlot is FindSlot over referenceMerged's timeline.
func referenceFindSlot(s *Schedule, earliest Time, d Duration, deadline Time) (Time, bool) {
	if d <= 0 {
		return earliest, true
	}
	if earliest+Time(d) > deadline {
		return 0, false
	}
	cur := earliest
	for _, t := range referenceMerged(s, earliest, deadline) {
		if t.End <= cur {
			continue
		}
		if t.Start >= cur+Time(d) {
			break
		}
		cur = t.End
		if cur+Time(d) > deadline {
			return 0, false
		}
	}
	return cur, true
}

// referenceBusyFraction is BusyFraction over referenceMerged's timeline.
func referenceBusyFraction(s *Schedule, from, to Time) float64 {
	if to <= from {
		return 0
	}
	var busy Duration
	for _, t := range referenceMerged(s, from, to) {
		if lo, hi := max(t.Start, from), min(t.End, to); hi > lo {
			busy += Duration(hi - lo)
		}
	}
	return float64(busy) / float64(to-from)
}

// checkWalkMatchesReference decodes data into reservations, overlapping
// background load in buckets of width 16 (some before time 0) and queries,
// and requires FindSlot and BusyFraction to agree exactly with the
// merge-sort-coalesce reference. Times are small, so equal starts, touching
// intervals and windows that begin or end on an interval's edge are common;
// queries also aim their edges at interval edges on purpose.
func checkWalkMatchesReference(t *testing.T, data []byte) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	s := New()
	var edges []Time
	for n := next() % 12; n > 0; n-- {
		start, d := Time(next()), Duration(next()%24+1)
		if _, err := s.Reserve(start, d, "c"); err == nil {
			edges = append(edges, start, start+Time(d))
		}
	}
	const width = 16
	load := testLoad{width: width, buckets: make(map[int64][]Task)}
	for n := next() % 16; n > 0; n-- {
		start := Time(next() - 48)
		end := start + Time(next()%40+1)
		k := int64(start) / width
		if start < 0 && int64(start)%width != 0 {
			k-- // bucket k holds starts in [k·width, (k+1)·width)
		}
		load.buckets[k] = append(load.buckets[k], Task{Start: start, End: end, Label: "bg"})
		edges = append(edges, start, end)
	}
	for _, b := range load.buckets {
		sort.Slice(b, func(i, j int) bool { return b[i].Start < b[j].Start })
	}
	if next()%4 != 0 {
		s.Background = load
	}
	pick := func() Time {
		if v := next(); v%3 == 0 && len(edges) > 0 {
			return edges[int(v/3)%len(edges)]
		}
		return Time(next() - 48)
	}
	for n := next()%8 + 1; n > 0; n-- {
		earliest, deadline := pick(), pick()
		if next()%2 == 0 {
			deadline = earliest + Time(next())
		}
		d := Duration(next() % 48)
		got, gotOK := s.FindSlot(earliest, d, deadline)
		want, wantOK := referenceFindSlot(s, earliest, d, deadline)
		if got != want || gotOK != wantOK {
			t.Fatalf("FindSlot(%d, %d, %d) = %d,%v; reference %d,%v\ncommitted %v\nbackground %v",
				earliest, d, deadline, got, gotOK, want, wantOK, s.tasks, load.buckets)
		}
		if got, want := s.BusyFraction(earliest, deadline), referenceBusyFraction(s, earliest, deadline); got != want {
			t.Fatalf("BusyFraction(%d, %d) = %v; reference %v\ncommitted %v\nbackground %v",
				earliest, deadline, got, want, s.tasks, load.buckets)
		}
	}
}

// FuzzFindSlot checks the lazy walk against the reference on arbitrary
// schedules, background load and queries.
func FuzzFindSlot(f *testing.F) {
	// Two commitments, background tasks with equal starts and a touching
	// pair, one query whose window starts where an interval ends.
	f.Add([]byte{2, 10, 9, 30, 9, 4, 60, 10, 60, 20, 80, 2, 82, 5, 1, 1, 3, 0, 1, 5, 1, 5})
	// Background straddling both a bucket edge and the deadline.
	f.Add([]byte{1, 0, 20, 2, 62, 39, 100, 39, 1, 2, 1, 70, 0, 40, 10})
	// Background before time 0 and a window that starts there.
	f.Add([]byte{0, 3, 0, 30, 10, 20, 40, 39, 1, 1, 1, 5, 1, 60, 30})
	// No background at all.
	f.Add([]byte{3, 5, 5, 20, 5, 40, 5, 0, 0, 2, 1, 0, 0, 80, 4, 1, 3, 0, 40, 12})
	f.Fuzz(checkWalkMatchesReference)
}

// TestFindSlotMatchesReference runs 20 000 random inputs through the fuzz
// body on every `go test`.
func TestFindSlotMatchesReference(t *testing.T) {
	r := prng.New(28)
	buf := make([]byte, 160)
	for range 20_000 {
		data := buf[:r.Intn(len(buf))]
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		checkWalkMatchesReference(t, data)
	}
}

// TestScheduleChecksDoNotAllocate: a slot search or a busy fraction reads the
// schedule and the background buckets in place.
func TestScheduleChecksDoNotAllocate(t *testing.T) {
	s := New()
	for i := range 50 {
		if _, err := s.Reserve(Time(i*100), 40, "c"); err != nil {
			t.Fatal(err)
		}
	}
	load := testLoad{width: 1000, buckets: make(map[int64][]Task)}
	for i := range 40 {
		start := Time(i*130 + 45)
		k := int64(start) / 1000
		load.buckets[k] = append(load.buckets[k], Task{Start: start, End: start + 50, Label: "bg"})
	}
	for _, bg := range []Background{nil, load} {
		s.Background = bg
		if n := testing.AllocsPerRun(100, func() { s.FindSlot(1000, 70, 4500) }); n != 0 {
			t.Errorf("FindSlot with background %v: %v allocations", bg != nil, n)
		}
		if n := testing.AllocsPerRun(100, func() { s.BusyFraction(0, 5000) }); n != 0 {
			t.Errorf("BusyFraction with background %v: %v allocations", bg != nil, n)
		}
	}
}

// Validate checks the internal invariant (sorted, non-overlapping) and
// returns an error describing the first violation.
func (s *Schedule) Validate() error {
	for i := 1; i < s.Len(); i++ {
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
