package main

import (
	"fmt"
	"math"
	"sort"
)

// value is one reported number. Unit, direction and bound are copied from the
// metric's declaration so a result file can be read on its own.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	N      int     `json:"n,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// result is everything one run of one workload reports. The driver reads
// only the last line of standard output (see summaryLine); this is the full
// record written to out/ and consumed by -compare.
type result struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Scale    float64  `json:"scale"`
	Env      envBlock `json:"env"`
	// Valid is false when the host cannot support the measurement: fewer
	// than two CPUs, or an open-loop generator that ran more than 50 ms
	// late. The numbers are still printed; nobody should compare them.
	Valid      bool     `json:"valid"`
	Correct    bool     `json:"correct"`
	Violations []string `json:"violations,omitempty"`
	Attempted  int      `json:"ops_attempted"`
	Failed     int      `json:"ops_failed"`
	WallS      float64  `json:"wall_s"`
	// Metrics holds the contract metrics of BENCHMARK.json: every
	// end_to_end metric on an untraced run, every per_layer metric on a
	// traced one.
	Metrics map[string]value `json:"metrics"`
	// Named holds the workload-specific end-to-end metrics (namedSpecs).
	Named map[string]value `json:"named,omitempty"`
	// Notes are counts and sizes that explain the metrics: point counts,
	// event counts, injections, generator lateness.
	Notes map[string]float64 `json:"notes,omitempty"`
	// TraceOverheadRatio is the traced run's headline metric over the
	// untraced run's, when out/ holds the untraced result of this workload.
	TraceOverheadRatio float64 `json:"trace_overhead_ratio,omitempty"`
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates the picker chooses among.
var tailPercentiles = []int{75, 90, 95, 99}

// pickTail returns the highest candidate percentile that still has at least
// ten samples beyond it, or 50 when the sample supports none: a percentile
// resting on fewer samples is mostly noise.
func pickTail(n int) int {
	best := 50
	for _, p := range tailPercentiles {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return best
}

// timing summarises latency samples as the median and the highest supported
// tail percentile.
type timing struct {
	N       int
	P50     float64
	TailPct int
	Tail    float64
}

func summarise(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pct := pickTail(len(s))
	return timing{N: len(s), P50: quantile(s, 0.5), TailPct: pct, Tail: quantile(s, float64(pct)/100)}
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (r *result) violate(format string, args ...any) {
	r.Correct = false
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}
