package main

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

func testSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload of BENCHMARK.json at about a tenth of its
// size, untraced and traced, and checks the contract: each declared metric
// exactly once, finite, well named. put() refuses a second report of a name,
// so "once" is the absence of a violation plus presence here.
func TestSmoke(t *testing.T) {
	spec, root := testSpec(t)
	out := filepath.Join(outDir(root), "test")
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runOne(spec, root, out, w.Name, 2, 1, 0.1, traced)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Errorf("violation: %s", v)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if !finite(v.Value) {
						t.Errorf("metric %s = %v", m.Name, v.Value)
					}
					if v.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, declared %q", m.Name, v.Unit, m.Unit)
					}
					if !metricName.MatchString(m.Name) {
						t.Errorf("metric name %q is not well formed", m.Name)
					}
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
			})
		}
	}
}

func TestPickTail(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {120, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	// 120 evenly spaced samples: p90 has twelve beyond it.
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i)
	}
	tm := summarise(xs)
	if tm.TailPct != 90 || math.Abs(tm.Tail-107.1) > 1e-9 || tm.P50 != 59.5 {
		t.Errorf("summarise = %+v", tm)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 3, 7, 1, 9, 4, 8, 2, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "store.b", Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "store.c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "content.x", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the parent: 60 of 100.
	want := map[int]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := value{Better: "lower", Bound: 0.10}
	higher := value{Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		spec value
		a, b []float64
		want string
	}{
		{"lower, 5% up", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"lower, 20% up", lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{"higher, 20% up", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"higher, 20% down", higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{"noisy", lower, steady, []float64{70, 130, 100, 60, 140}, "unresolved"},
		{"no bound", value{Better: "lower"}, steady, []float64{200}, "info"},
	} {
		if _, got := judge("m", c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, got := judge("poll_fail_ratio", value{Better: "lower", Bound: 0.02}, []float64{0}, []float64{0.01}); got != "ok" {
		t.Errorf("absolute bound: 0 -> 0.01 judged %q", got)
	}
}
