package experiment

import (
	"cmp"
	"math"
	"slices"

	"lockss/internal/adversary"
	"lockss/internal/prng"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// The paper simulates 600-AU collections by layering 50-AU runs: "layer n is
// a simulation of 50 AUs on peers already running a realistic workload of
// 50(n-1) AUs" (§6.3). We reproduce the technique with a statistical replay:
// from the first layer we measure each population's task arrival rate and
// mean task duration, and feed layer n a deterministic Poisson background
// load of (n-1) layers' intensity as the scheduler's Background.
// The substitution (sampled rather than verbatim task replay) preserves the
// contention profile while keeping memory bounded; DESIGN.md records it.

// bgLoad deterministically synthesizes background busy intervals, one
// bucket of simulated time at a time. It is pure: the tasks for a bucket
// depend only on (seed, bucket index), so repeated schedule queries see a
// consistent timeline — which also makes the buckets memoizable. Schedule
// checks hit the same handful of buckets over and over as simulated time
// advances, so each bucket is generated once and kept, indexed by bucket
// number.
type bgLoad struct {
	seed      uint64
	ratePerNs float64 // expected task arrivals per nanosecond
	meanDurNs float64
	bucket    int64 // bucket width in nanoseconds

	// after[k] holds bucket k >= 0 and before[-k-1] bucket k < 0, the days
	// BusyFraction looks back on early in a run; nil until generated.
	after, before [][]sched.Task
}

// poisson draws a Poisson variate with mean lambda (Knuth's method; lambda
// here is small — a handful of tasks per bucket).
func poisson(rnd *prng.Source, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rnd.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // guard against pathological lambda
			return k
		}
	}
}

// BucketWidth implements sched.Background.
func (b *bgLoad) BucketWidth() sched.Duration { return sched.Duration(b.bucket) }

// Bucket implements sched.Background: bucket k's tasks, sorted by start,
// generated on first touch. The draws depend on (seed, k) alone, so when a
// bucket is first read is invisible to replay.
func (b *bgLoad) Bucket(k int64) []sched.Task {
	cache, i := &b.after, k
	if k < 0 {
		cache, i = &b.before, -k-1
	}
	// Grown one nil at a time: append(s, make(...)...) is free only where
	// the compiler elides the temporary, which a -race build does not.
	for int64(len(*cache)) <= i {
		*cache = append(*cache, nil)
	}
	if ts := (*cache)[i]; ts != nil {
		return ts
	}
	rnd := prng.New(b.seed ^ uint64(k)*0x9e3779b97f4a7c15)
	n := poisson(rnd, b.ratePerNs*float64(b.bucket))
	ts := make([]sched.Task, 0, n) // never nil, even when empty
	for range n {
		start := sched.Time(k*b.bucket + rnd.Int63n(b.bucket))
		dur := rnd.ExpFloat64(b.meanDurNs)
		if dur < 1 {
			dur = 1
		}
		ts = append(ts, sched.Task{Start: start, End: start + sched.Time(dur), Label: "bg"})
	}
	slices.SortFunc(ts, func(a, b sched.Task) int { return cmp.Compare(a.Start, b.Start) })
	(*cache)[i] = ts
	return ts
}

// measureLoad extracts the mean per-peer task rate and duration of a run.
func measureLoad(w *world.World) (ratePerNs, meanDurNs float64) {
	var count uint64
	var total sched.Duration
	for _, p := range w.Peers {
		count += p.Schedule().CommittedCount
		total += p.Schedule().CommittedTotal
	}
	if count == 0 {
		return 0, 0
	}
	horizon := float64(w.Cfg.Duration) * float64(len(w.Peers))
	return float64(count) / horizon, float64(total) / float64(count)
}

// combineLayers aggregates per-layer stats into collection-wide stats:
// fractions average, counts and efforts sum.
func combineLayers(layers []RunStats) RunStats {
	var out RunStats
	n := float64(len(layers))
	if n == 0 {
		return out
	}
	var gapW float64
	for _, r := range layers {
		out.AccessFailure += r.AccessFailure / n
		out.SuccessfulPolls += r.SuccessfulPolls
		out.TotalPolls += r.TotalPolls
		out.DefenderEffort += r.DefenderEffort
		out.AttackerEffort += r.AttackerEffort
		out.Alarms += r.Alarms
		out.DamageEvents += r.DamageEvents
		out.RepairsFixed += r.RepairsFixed
		if !math.IsInf(r.MeanSuccessGap, 1) && r.SuccessfulPolls > 0 {
			out.MeanSuccessGap += r.MeanSuccessGap * r.SuccessfulPolls
			gapW += r.SuccessfulPolls
		}
	}
	if gapW > 0 {
		out.MeanSuccessGap /= gapW
	} else {
		out.MeanSuccessGap = math.Inf(1)
	}
	if out.SuccessfulPolls > 0 {
		out.EffortPerPoll = out.DefenderEffort / out.SuccessfulPolls
	}
	return out
}

// runLayer executes layer n >= 1 of a stack on the calling goroutine: its
// own seed, and on every peer the replayed background load of the n layers
// beneath it, measured on layer 0 as ratePerNs and meanDurNs.
func runLayer(cfg world.Config, mkAttack func() adversary.Adversary, layer int,
	ratePerNs, meanDurNs float64) (RunStats, error) {
	cfg.Seed += uint64(layer) * 7_919
	w, err := runWorld(cfg, func(w *world.World) {
		for i, p := range w.Peers {
			p.Schedule().Background = &bgLoad{
				seed:      cfg.Seed ^ uint64(i)<<32 ^ 0xb6,
				ratePerNs: ratePerNs * float64(layer),
				meanDurNs: meanDurNs,
				bucket:    int64(sim.Day),
			}
		}
		attach(w, mkAttack)
	})
	if err != nil {
		return RunStats{}, err
	}
	return statsFromWorld(w), nil
}
