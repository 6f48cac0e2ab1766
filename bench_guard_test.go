package lockss

// The bench guard pins the allocation budget of the simulation hot path.
//
// Every run in this file is a fixed-seed, single-goroutine simulation, so its
// malloc count is deterministic; the guard measures each workload once with
// runtime.ReadMemStats and compares against testdata/bench_baseline.json.
// A regression beyond the tolerance fails `go test -run TestBenchGuard .`
// (and therefore plain `go test ./...` and CI). After a deliberate
// improvement, ratchet the baseline down with
//
//	go test -run TestBenchGuard -update-bench .
//
// The workloads are one representative data point per figure, table and
// ablation at reduced scale (seed 1), one simulation run per entry, so the
// guard stays a few seconds while covering the hot path bench/ times. It is a
// deterministic gate, not a measurement: numbers to quote come from bench/.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"lockss/internal/adversary"
	"lockss/internal/experiment"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/world"
)

var updateBench = flag.Bool("update-bench", false, "rewrite testdata/bench_baseline.json from the current measurements")

// benchGuardTolerance is the fractional headroom above the recorded
// allocation count before the guard fails. It absorbs run-to-run noise from
// the runtime (background sweeps, map growth timing) and small shifts across
// Go releases; genuine hot-path regressions are far larger.
const benchGuardTolerance = 0.15

const benchBaselinePath = "testdata/bench_baseline.json"

// benchWorld is the shared reduced-scale population of the guarded runs.
func benchWorld() world.Config {
	cfg := world.Default()
	cfg.Peers = 25
	cfg.AUs = 4
	cfg.AUSize = 64 << 20
	cfg.Duration = 1 * sim.Year
	cfg.DamageDiskYears = 5
	return cfg
}

// guardWorkloads is one simulation run per figure, table and ablation. Keys
// are stable identifiers recorded in the baseline file.
func guardWorkloads() []struct {
	Name string
	Run  func() error
} {
	run := func(mut func(cfg *world.Config), mk func() adversary.Adversary) func() error {
		return func() error {
			cfg := benchWorld()
			cfg.Seed = 1
			if mut != nil {
				mut(&cfg)
			}
			_, err := experiment.RunOne(cfg, mk)
			return err
		}
	}
	pulse := func(coverage float64, days int) func() adversary.Adversary {
		return func() adversary.Adversary {
			return &adversary.PipeStoppage{Pulse: adversary.Pulse{
				Coverage: coverage, Duration: sim.Duration(days) * sim.Day, Recuperation: 30 * sim.Day,
			}}
		}
	}
	flood := func(coverage float64, dur sim.Duration) func() adversary.Adversary {
		return func() adversary.Adversary {
			return &adversary.AdmissionFlood{Pulse: adversary.Pulse{
				Coverage: coverage, Duration: dur, Recuperation: 30 * sim.Day,
			}}
		}
	}
	brute := func(d adversary.Defection) func() adversary.Adversary {
		return func() adversary.Adversary { return &adversary.BruteForce{Defection: d} }
	}
	// scaled pins the capacity tiers' allocation behavior: the real
	// population shape (5k/20k peers, cold bootstrap) over a one-week
	// horizon, so the guard stays seconds while covering the construction
	// and steady-state paths that dominate at -scale large/huge.
	scaled := func(s experiment.Scale, days int) func() error {
		return func() error {
			cfg := experiment.Options{Scale: s}.BaseWorld()
			cfg.Duration = sim.Duration(days) * sim.Day
			_, err := experiment.RunOne(cfg, nil)
			return err
		}
	}
	full := benchWorld().Duration
	return []struct {
		Name string
		Run  func() error
	}{
		{"figure2-baseline", run(nil, nil)},
		{"figure3-pipe-stoppage", run(nil, pulse(1, 90))},
		{"figure4-pipe-stoppage-70", run(nil, pulse(0.7, 90))},
		{"figure5-pipe-stoppage-180d", run(nil, pulse(1, 180))},
		{"figure6-admission-flood", run(nil, flood(1, full))},
		{"figure7-admission-flood-40", run(nil, flood(0.4, 90*sim.Day))},
		{"table1-brute-force-intro", run(nil, brute(adversary.DefectIntro))},
		{"table1-brute-force-remaining", run(nil, brute(adversary.DefectRemaining))},
		{"table1-brute-force-none", run(nil, brute(adversary.DefectNone))},
		{"ablation-refractory-1day", run(func(cfg *world.Config) {
			cfg.Protocol.Refractory = sched.Duration(1 * int64(sim.Day))
		}, flood(1, full))},
		{"ablation-desynchronization-off", run(func(cfg *world.Config) {
			cfg.Protocol.Desynchronize = false
		}, brute(adversary.DefectRemaining))},
		{"ablation-effort-balancing-on", run(nil, brute(adversary.DefectNone))},
		{"scale-large-7d", scaled(experiment.ScaleLarge, 7)},
		{"scale-huge-7d", scaled(experiment.ScaleHuge, 7)},
	}
}

// countMallocs runs f once and returns the number of heap objects it
// allocated.
func countMallocs(f func() error) (uint64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// TestBenchGuard fails when any guarded workload allocates more than the
// recorded baseline plus tolerance.
func TestBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen reduced-scale simulations")
	}
	measured := make(map[string]uint64)
	for _, w := range guardWorkloads() {
		allocs, err := countMallocs(w.Run)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		measured[w.Name] = allocs
	}

	if *updateBench {
		names := make([]string, 0, len(measured))
		for name := range measured {
			names = append(names, name)
		}
		sort.Strings(names)
		var buf []byte
		buf = append(buf, "{\n"...)
		for i, name := range names {
			comma := ","
			if i == len(names)-1 {
				comma = ""
			}
			buf = append(buf, fmt.Sprintf("  %q: %d%s\n", name, measured[name], comma)...)
		}
		buf = append(buf, "}\n"...)
		if err := os.MkdirAll(filepath.Dir(benchBaselinePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselinePath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(benchBaselinePath)
	if err != nil {
		t.Fatalf("missing allocation baseline (generate with -update-bench): %v", err)
	}
	baseline := make(map[string]uint64)
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("parsing %s: %v", benchBaselinePath, err)
	}

	for _, w := range guardWorkloads() {
		want, ok := baseline[w.Name]
		if !ok {
			t.Errorf("%s: not in %s (regenerate with -update-bench)", w.Name, benchBaselinePath)
			continue
		}
		got := measured[w.Name]
		limit := want + uint64(float64(want)*benchGuardTolerance)
		switch {
		case got > limit:
			t.Errorf("%s: %d allocs, budget %d (+%.0f%% tolerance over baseline %d) — hot-path allocation regression",
				w.Name, got, limit, benchGuardTolerance*100, want)
		default:
			t.Logf("%s: %d allocs (baseline %d, budget %d)", w.Name, got, want, limit)
		}
	}
}
