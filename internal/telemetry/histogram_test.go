package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestBucketIndexPlacement(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0},
		{-7, 0}, // clamped
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1000, 10},           // 512 <= 1000 < 1024
		{int64(1) << 62, 63}, // clamped into the top bucket
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.ns)
		s := h.Snapshot()
		if s.Buckets[c.bucket] != 1 {
			t.Errorf("Observe(%d): bucket %d empty, snapshot %v", c.ns, c.bucket, s.Buckets)
		}
		if s.Count != 1 {
			t.Errorf("Observe(%d): count %d", c.ns, s.Count)
		}
	}
	var h Histogram
	h.Observe(-5)
	if s := h.Snapshot(); s.Sum != 0 {
		t.Errorf("negative observation summed: %d", s.Sum)
	}
}

func TestSnapshotMergeQuantileMean(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 900; i++ {
		a.Observe(1000) // bucket 10: [512ns, 1024ns)
	}
	for i := 0; i < 100; i++ {
		b.Observe(1_000_000) // bucket 20: [512us, 1024us)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 1000 || s.Sum != 900*1000+100*1_000_000 {
		t.Fatalf("merged count=%d sum=%d", s.Count, s.Sum)
	}
	if p50 := s.Quantile(0.50); p50 < 512e-9 || p50 > 1024e-9 {
		t.Errorf("p50 = %g, want within bucket [512ns, 1024ns]", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512e-6 || p99 > 1024e-6 {
		t.Errorf("p99 = %g, want within bucket [512us, 1024us]", p99)
	}
	wantMean := float64(900*1000+100*1_000_000) / 1000 / 1e9
	if m := s.Mean(); math.Abs(m-wantMean) > 1e-15 {
		t.Errorf("mean = %g, want %g", m, wantMean)
	}
	if q := (Snapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}

func TestBoundsTrimmed(t *testing.T) {
	if b, c := (Snapshot{}).Bounds(); b != nil || c != nil {
		t.Errorf("empty Bounds = %v, %v", b, c)
	}
	var h Histogram
	h.Observe(1000) // bucket 10
	h.Observe(2000) // bucket 11
	bounds, cum := h.Snapshot().Bounds()
	if len(bounds) != 2 || len(cum) != 2 {
		t.Fatalf("Bounds = %v, %v; want the two occupied buckets only", bounds, cum)
	}
	if bounds[0] != BucketBound(10) || bounds[1] != BucketBound(11) {
		t.Errorf("bounds = %v", bounds)
	}
	if cum[0] != 1 || cum[1] != 2 {
		t.Errorf("cumulative = %v", cum)
	}

	// A top-bucket observation has no finite bound: it shows up in Count
	// (the implicit +Inf bucket), never in the exposed bounds.
	var top Histogram
	top.Observe(1 << 62)
	bounds, cum = top.Snapshot().Bounds()
	if len(bounds) != 0 || len(cum) != 0 {
		t.Errorf("top-bucket-only Bounds = %v, %v; want empty", bounds, cum)
	}
	if s := top.Snapshot(); s.Count != 1 {
		t.Errorf("count = %d", s.Count)
	}
}

// TestHistogramConcurrent drives concurrent writers into one histogram while
// a reader snapshots — the wait-free record path under -race. Every snapshot
// must agree with itself: a Count above its buckets' total sends Quantile past
// the last bucket, to about 4.6e9 s.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, per = 8, 10_000
	// Every value written is below 2^15 ns, so no quantile may exceed it.
	const maxSec = float64(1<<15) / 1e9
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var total uint64
			for _, c := range s.Buckets {
				total += c
			}
			if total > writers*per {
				t.Errorf("snapshot buckets total %d beyond %d writes", total, writers*per)
				return
			}
			if s.Count != total {
				t.Errorf("snapshot Count %d disagrees with its buckets' total %d", s.Count, total)
				return
			}
			if q := s.Quantile(1); q > maxSec {
				t.Errorf("Quantile(1) = %g s, above every value written (< %g s)", q, maxSec)
				return
			}
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*per {
		t.Fatalf("final count = %d, want %d", s.Count, writers*per)
	}
}

// TestObserveDoesNotAllocate pins the always-on record path at zero
// allocations: Observe sits on every poll, vote and queue hop.
func TestObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per op, want 0", allocs)
	}
}
