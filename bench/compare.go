package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readResults reads a result file: one result (out/result-<workload>.json)
// or a set of them (-runs n -o file).
func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		var set []*result
		if err := json.Unmarshal(data, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return set, nil
	}
	var one result
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []*result{&one}, nil
}

// cell is one (workload, metric) pairing across the runs of one set.
type cell struct {
	spec   value
	values []float64
}

type cellKey struct{ workload, metric string }

// cells groups a set's numbers by workload and metric. Contract metrics take
// their direction and bound from BENCHMARK.json, named ones from the result.
func cells(spec *benchSpec, set []*result) map[cellKey]*cell {
	out := map[cellKey]*cell{}
	for _, r := range set {
		for _, group := range []map[string]value{r.Metrics, r.Named} {
			for name, v := range group {
				if ms, ok := spec.metric(name); ok {
					v.Better, v.Bound, v.Unit = ms.Better, ms.Bound, ms.Unit
				}
				k := cellKey{r.Workload, name}
				if out[k] == nil {
					out[k] = &cell{spec: v}
				}
				out[k].values = append(out[k].values, v.Value)
			}
		}
	}
	return out
}

// spread is the interquartile range over the median, the driver's measure of
// run-to-run noise; it needs at least four runs.
func spread(xs []float64) (float64, bool) {
	if len(xs) < 4 {
		return 0, false
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / q2, true
}

// judge compares set b against baseline a for one cell. The change is signed
// so that positive means worse: a share of the baseline's median, or for
// absolute-bound metrics the plain difference.
func judge(name string, spec value, a, b []float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	switch {
	case absoluteBound[name]:
		change = mb - ma
	case ma != 0:
		change = (mb - ma) / ma
	}
	if spec.Better == "higher" {
		change = -change
	}
	if spec.Bound == 0 {
		return change, "info" // per-layer metrics carry no bound
	}
	for _, xs := range [][]float64{a, b} {
		if s, ok := spread(xs); ok && s > spec.Bound && !absoluteBound[name] {
			// Noise wider than the bound: neither "worse" nor "unchanged"
			// can be said.
			return change, "unresolved"
		}
	}
	if change > spec.Bound {
		return change, "worse"
	}
	return change, "ok"
}

// compareFiles prints, per workload and metric, both medians, the change and
// the bound, and returns 1 if anything got worse by more than its bound.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	var sets [2][]*result
	for i, path := range []string{pathA, pathB} {
		set, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(spec, sets[0], sets[1])
}

func compareSets(spec *benchSpec, setA, setB []*result) int {
	ca, cb := cells(spec, setA), cells(spec, setB)
	keys := make([]cellKey, 0, len(ca))
	for k := range ca {
		if cb[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	counts := map[string]int{}
	fmt.Printf("%-14s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, k := range keys {
		a, b := ca[k], cb[k]
		change, verdict := judge(k.metric, a.spec, a.values, b.values)
		counts[verdict]++
		unit := "%"
		shown := change * 100
		if absoluteBound[k.metric] {
			unit, shown = "", change
		}
		fmt.Printf("%-14s %-34s %14.6g %14.6g %+8.2f%s %7g  %s\n",
			k.workload, k.metric, median(a.values), median(b.values), shown, unit, a.spec.Bound, verdict)
	}
	fmt.Printf("%d ok, %d worse, %d unresolved, %d without a bound; change is signed so that + is worse\n",
		counts["ok"], counts["worse"], counts["unresolved"], counts["info"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}
