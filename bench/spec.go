package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is present on
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the contract this program is run under:
// it is the single source of workload names, metric names, units, directions
// and bounds, so the program cannot drift from what the driver expects.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot returns the repository root: the directory holding BENCHMARK.json.
// `go run -C bench .` starts the program in bench/, `go test` likewise; a
// built binary may be started from the root.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric returns the declared spec of a contract metric.
func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// namedSpecs are the workload-specific end-to-end metrics of the issue that
// defined this benchmark. The driver's contract wants every end_to_end
// metric of BENCHMARK.json on every workload, so BENCHMARK.json carries five
// generic ones (see README.md for the mapping) and these ride along in the
// result file under "named", each on the workloads it is defined for, with
// the bound the issue gave it. -compare judges both kinds.
var namedSpecs = map[string]metricSpec{
	"sim_points_per_s":     {Unit: "points/s", Better: "higher", Bound: 0.10},
	"sim_events_per_s":     {Unit: "events/s", Better: "higher", Bound: 0.10},
	"heap_bytes_per_peer":  {Unit: "B", Better: "lower", Bound: 0.05},
	"cpu_ms_per_poll":      {Unit: "ms", Better: "lower", Bound: 0.10},
	"rot_repair_p50_s":     {Unit: "s", Better: "lower", Bound: 0.10},
	"rot_repair_p75_s":     {Unit: "s", Better: "lower", Bound: 0.15},
	"rot_repair_p90_s":     {Unit: "s", Better: "lower", Bound: 0.15},
	"rot_repair_p95_s":     {Unit: "s", Better: "lower", Bound: 0.15},
	"rot_repair_p99_s":     {Unit: "s", Better: "lower", Bound: 0.15},
	"poll_fail_ratio":      {Unit: "ratio", Better: "lower", Bound: 0.02},
	"flood_cpu_us_per_msg": {Unit: "us", Better: "lower", Bound: 0.10},
	"ingest_mb_per_s":      {Unit: "MB/s", Better: "higher", Bound: 0.10},
	"scrub_mb_per_s":       {Unit: "MB/s", Better: "higher", Bound: 0.10},
	"vote_hash_mb_per_s":   {Unit: "MB/s", Better: "higher", Bound: 0.10},
}

// absoluteBound lists the named metrics whose bound is an absolute
// difference, not a share of the baseline (a ratio near zero has no
// meaningful relative change).
var absoluteBound = map[string]bool{"poll_fail_ratio": true}
