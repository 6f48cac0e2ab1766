// Package telemetry is the node's always-on observability layer: lock-free
// log-bucketed latency histograms, a fixed-size flight-recorder ring of
// poll-lifecycle events, and per-poll span aggregation — all cheap enough to
// leave enabled in production (unlike the opt-in -record trace tap, which
// captures every message).
//
// The histograms are the paper's missing health signal: rate-limited sampled
// voting lives or dies on the *tails* of poll duration and vote-solicitation
// latency, which monotonic counters cannot show. Everything here is fed from
// protocol.Observer/SpanObserver events carrying poll IDs and timestamps, so
// the same recorder works on virtual time under the simulator and wall time
// on a real node. Readers take snapshots and span copies in process: the
// admin server renders them as /metrics and /polls, and the fleet merges
// every node's recorder directly into fleet-wide distributions.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every histogram: bucket i counts
// values v (nanoseconds) with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i),
// with bucket 0 holding exact zeros. 64 buckets cover the full int64 range,
// so sub-microsecond admin handlers and month-long simulated polls land in
// the same fixed-size structure.
const NumBuckets = 64

// Histogram is a lock-free log₂-bucketed histogram of non-negative
// nanosecond values. Observe is wait-free (one bits.Len64 and two atomic
// adds, no allocation); Snapshot can be taken from any goroutine while
// writers proceed; a snapshot's Count is the sum of the buckets it read, so
// the two always agree. Snapshots merge by addition, so per-node histograms
// combine into fleet-wide distributions exactly.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Observe records one nanosecond measurement. Negative values clamp to zero
// (they can only arise from clock steps on a real node).
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the histogram's current state. The copy is not an atomic
// cut across buckets — writers may land between bucket reads — but Count is
// summed from the very buckets copied, so quantiles never run past them;
// only Sum may be off by the in-flight writes, which is the right trade for
// a no-stop reader.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// Snapshot is a point-in-time copy of a Histogram, mergeable by addition.
type Snapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     int64 // nanoseconds
}

// Merge adds o into s.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// BucketBound returns bucket i's inclusive upper bound in seconds
// (2^i - 1 nanoseconds; bucket 0 is the zero bucket).
func BucketBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i)-1) / 1e9
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds, interpolating
// linearly within the containing power-of-two bucket. Returns 0 on an empty
// snapshot.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := float64(uint64(1) << uint(i-1))
		hi := 2 * lo
		if i == NumBuckets-1 {
			hi = lo // open-ended top bucket: report its lower edge
		}
		frac := (rank - prev) / float64(c)
		return (lo + frac*(hi-lo)) / 1e9
	}
	return BucketBound(NumBuckets - 2)
}

// Mean returns the mean recorded value in seconds (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count) / 1e9
}

// Bounds returns the trimmed Prometheus exposition of the snapshot: the
// cumulative counts and their upper bounds in seconds, from the first
// non-empty bucket through the last (empty histograms return nil). The
// +Inf bucket is implicit — it always equals Count.
func (s Snapshot) Bounds() (bounds []float64, cum []uint64) {
	lo, hi := -1, -1
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if lo < 0 {
			lo = i
		}
		hi = i
	}
	if lo < 0 {
		return nil, nil
	}
	var acc uint64
	for i := lo; i <= hi && i < NumBuckets-1; i++ {
		acc += s.Buckets[i]
		bounds = append(bounds, BucketBound(i))
		cum = append(cum, acc)
	}
	return bounds, cum
}
