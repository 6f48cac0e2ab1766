package lockss

// The bench guard pins the allocation budget of the simulation hot path and
// the memory budget of an idle peer.
//
// Every simulation in this file is fixed-seed and runs on one goroutine, so
// its malloc count is deterministic; the guard measures each workload once with
// runtime.ReadMemStats and compares against testdata/bench_baseline.json.
// One more line, liveHeapLine, is not an allocation count: it is the bytes a
// finished scale-large world still holds per peer, the number bench/ reports
// as heap_bytes_per_peer.
// A regression beyond the tolerance fails `go test -run TestBenchGuard .`
// (and therefore plain `go test ./...` and CI). After a deliberate
// improvement, ratchet the baseline down with
//
//	go test -run TestBenchGuard -update-bench .
//
// The workloads are one representative data point per figure, table and
// ablation at reduced scale (seed 1), one simulation run per entry (three
// for the layered one), so the guard stays a few seconds while covering the
// hot path bench/ times. It is a deterministic gate, not a measurement:
// numbers to quote come from bench/.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lockss/internal/adversary"
	"lockss/internal/experiment"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/world"
)

var updateBench = flag.Bool("update-bench", false, "rewrite testdata/bench_baseline.json from the current measurements")

// benchGuardTolerance is the fractional headroom above a recorded baseline
// before the guard fails. It absorbs run-to-run noise from
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
			_, err := experiment.NewEngine(1).Run(context.Background(), cfg, mk, 1, 1)
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
	// scaled pins the capacity tier's allocation behavior: the real
	// population shape (5k peers, cold bootstrap) over a one-week horizon,
	// so the guard stays seconds while covering the construction and
	// steady-state paths that dominate at -scale large.
	scaled := func(s experiment.Scale, days int) func() error {
		return func() error {
			cfg := experiment.Options{Scale: s}.BaseWorld()
			cfg.Duration = sim.Duration(days) * sim.Day
			_, err := experiment.NewEngine(1).Run(context.Background(), cfg, nil, 1, 1)
			return err
		}
	}
	// layered pins the §6.3 layering path: every layer above the first
	// checks its schedule against replayed background load.
	layered := func(layers int) func() error {
		return func() error {
			cfg := benchWorld()
			cfg.Seed = 1
			_, err := experiment.Run(context.Background(), cfg, nil, 1, layers)
			return err
		}
	}
	full := benchWorld().Duration
	return []struct {
		Name string
		Run  func() error
	}{
		{"figure2-baseline", run(nil, nil)},
		{"figure2-layered", layered(3)},
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

// liveHeapLine is the baseline key of the per-peer memory budget.
const liveHeapLine = "scale-large-7d-live-bytes-per-peer"

// liveHeapPerPeer builds and runs the scale-large-7d world and returns the
// heap bytes per peer still reachable from the finished world. With sites set
// it samples every allocation of that world and also returns the ten largest
// in-use allocation sites. They must be read here, while the world is alive:
// a profile written at process exit shows what a run allocated, not what a
// peer keeps.
func liveHeapPerPeer(sites bool) (perPeer uint64, top string, err error) {
	cfg := experiment.Options{Scale: experiment.ScaleLarge}.BaseWorld()
	cfg.Duration = 7 * sim.Day
	if sites {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := world.New(cfg)
	if err != nil {
		return 0, "", err
	}
	w.Run()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer runtime.KeepAlive(w)
	perPeer = (after.HeapAlloc - before.HeapAlloc) / uint64(cfg.Peers)
	if !sites {
		return perPeer, "", nil
	}

	recs := make([]runtime.MemProfileRecord, 4096)
	n, ok := runtime.MemProfile(recs, false)
	for !ok {
		recs = make([]runtime.MemProfileRecord, 2*n)
		n, ok = runtime.MemProfile(recs, false)
	}
	inUse := make(map[string]int64)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next() // charge the innermost frame outside the runtime
			if inRuntime := strings.HasPrefix(f.Function, "runtime.") || strings.HasPrefix(f.Function, "internal/runtime/"); !inRuntime || !more {
				inUse[f.Function] += r.InUseBytes()
				break
			}
		}
	}
	names := make([]string, 0, len(inUse))
	for name := range inUse {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return inUse[names[i]] > inUse[names[j]] })
	for _, name := range names[:min(10, len(names))] {
		top += fmt.Sprintf("\n  %6.1f MB  %s", float64(inUse[name])/1e6, name)
	}
	return perPeer, top, nil
}

// TestBenchGuard fails when any guarded workload allocates more, or a
// finished large world keeps more per peer, than the recorded baseline plus
// tolerance.
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
	perPeer, _, err := liveHeapPerPeer(false)
	if err != nil {
		t.Fatalf("%s: %v", liveHeapLine, err)
	}
	measured[liveHeapLine] = perPeer

	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)

	if *updateBench {
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

	for _, name := range names {
		got := measured[name]
		want, ok := baseline[name]
		if !ok {
			t.Errorf("%s: not in %s (regenerate with -update-bench)", name, benchBaselinePath)
			continue
		}
		limit := want + uint64(float64(want)*benchGuardTolerance)
		switch {
		case got > limit && name == liveHeapLine:
			_, sites, _ := liveHeapPerPeer(true)
			t.Errorf("%s: %d B, budget %d (+%.0f%% tolerance over baseline %d) — a peer keeps more; largest in-use sites with the world alive:%s",
				name, got, limit, benchGuardTolerance*100, want, sites)
		case got > limit:
			t.Errorf("%s: %d allocs, budget %d (+%.0f%% tolerance over baseline %d) — hot-path allocation regression",
				name, got, limit, benchGuardTolerance*100, want)
		default:
			t.Logf("%s: %d (baseline %d, budget %d)", name, got, want, limit)
		}
	}
}
