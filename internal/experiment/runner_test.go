package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lockss/internal/adversary"
	"lockss/internal/effort"
	"lockss/internal/sim"
	"lockss/internal/telemetry"
	"lockss/internal/world"
)

// ctx is the default context for engine calls in these tests.
var ctx = context.Background()

// runnerCfg is a deliberately small population so the runner tests can
// afford many full simulation runs.
func runnerCfg() world.Config {
	cfg := world.Default()
	cfg.Peers = 12
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = 120 * sim.Day
	return cfg
}

// runOne executes one plain run of cfg on the calling goroutine, bypassing
// the engine: the serial reference the engine's results must match.
func runOne(cfg world.Config, mkAttack func() adversary.Adversary) (RunStats, error) {
	w, err := runWorld(cfg, func(w *world.World) { attach(w, mkAttack) })
	if err != nil {
		return RunStats{}, err
	}
	return statsFromWorld(w), nil
}

func runnerAttack() adversary.Adversary {
	return &adversary.PipeStoppage{Pulse: adversary.Pulse{
		Coverage: 1, Duration: 30 * sim.Day, Recuperation: 15 * sim.Day,
	}}
}

// TestEngineDeterminism asserts the engine's results are bit-identical to
// the serial reference loop and invariant under the worker count, for plain,
// attack, and layered runs.
func TestEngineDeterminism(t *testing.T) {
	cfg := runnerCfg()
	const seeds = 3

	// Serial reference: the loop the engine replaced.
	var runs []RunStats
	for s := 0; s < seeds; s++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(s)*1_000_003
		r, err := runOne(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	want := average(runs)

	for _, workers := range []int{1, 8} {
		e := NewEngine(workers)
		got, err := e.Run(ctx, cfg, nil, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: Run diverges from the serial reference:\n got %+v\nwant %+v", workers, got, want)
		}
	}

	// Attack and layered runs: workers=1 vs workers=8 must agree exactly.
	e1, e8 := NewEngine(1), NewEngine(8)
	a1, err := e1.Run(ctx, cfg, runnerAttack, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := e8.Run(ctx, cfg, runnerAttack, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a8 {
		t.Errorf("attack Run differs across worker counts:\n w1 %+v\n w8 %+v", a1, a8)
	}
	l1, err := e1.Run(ctx, cfg, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	l8, err := e8.Run(ctx, cfg, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l8 {
		t.Errorf("layered run differs across worker counts:\n w1 %+v\n w8 %+v", l1, l8)
	}
}

// TestEngineMemoization asserts every keyable run is served from the memo
// on repeat, attack runs included; that a layered stack takes its layer 0
// from the plain run of the same point; and that memoized results equal
// computed ones.
func TestEngineMemoization(t *testing.T) {
	cfg := runnerCfg()
	e := NewEngine(4)
	check := func(what string, wantHits, wantComputed uint64) {
		t.Helper()
		if hits, computed := e.MemoStats(); hits != wantHits || computed != wantComputed {
			t.Errorf("%s: hits=%d computed=%d, want %d/%d", what, hits, computed, wantHits, wantComputed)
		}
	}

	first, err := e.Run(ctx, cfg, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("first averaged run", 0, 2)
	again, err := e.Run(ctx, cfg, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("repeat", 2, 2)
	if first != again {
		t.Errorf("memoized result differs from computed: %+v vs %+v", again, first)
	}

	// A repeated attack run is a hit, and equals the serial reference.
	attack, err := e.Run(ctx, cfg, runnerAttack, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("attack run", 2, 3)
	if _, err := e.Run(ctx, cfg, runnerAttack, 1, 1); err != nil {
		t.Fatal(err)
	}
	check("repeated attack run", 3, 3)
	if want, err := runOne(cfg, runnerAttack); err != nil || attack != want {
		t.Errorf("memoized attack run %+v differs from the serial reference %+v (%v)", attack, want, err)
	}

	// A layered stack's layer 0 is the plain run already computed: only
	// layer 1 is new, and the stack equals one computed from scratch.
	for _, mk := range []func() adversary.Adversary{nil, runnerAttack} {
		hits, computed := e.MemoStats()
		layered, err := e.Run(ctx, cfg, mk, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		check("layered stack over a plain run", hits+1, computed+1)
		fresh, err := NewEngine(1).Run(ctx, cfg, mk, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if layered != fresh {
			t.Errorf("attack=%v: layered stack on a shared layer 0 differs from a fresh one:\n got %+v\nwant %+v",
				mk != nil, layered, fresh)
		}
		if _, err := e.Run(ctx, cfg, mk, 1, 2); err != nil {
			t.Fatal(err)
		}
		check("repeated layered stack", hits+3, computed+1)
	}
}

// TestMemoKeysConfigByValue asserts the memo keys a run on its whole
// world.Config by value. A config that differs in one field of its cost
// model, or one field of its churn, is a separate run; an equal config, and a
// zero cost model beside the default one, are served from the memo; and a
// config carrying a Telemetry sink is computed on every request, so the sink
// sees every run's events.
func TestMemoKeysConfigByValue(t *testing.T) {
	cfg := runnerCfg()
	cfg.Duration = 20 * sim.Day
	cfg.Churn = world.Churn{JoinPerYear: 200, MaxJoins: 2, FriendsPerJoiner: 3}
	e := NewEngine(2)
	var wantHits, wantComputed uint64
	check := func(what string) {
		t.Helper()
		if hits, computed := e.MemoStats(); hits != wantHits || computed != wantComputed {
			t.Errorf("%s: hits=%d computed=%d, want %d/%d", what, hits, computed, wantHits, wantComputed)
		}
	}
	run := func(c world.Config) RunStats {
		t.Helper()
		st, err := e.Run(ctx, c, nil, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	first := run(cfg)
	wantComputed++
	if first.Joined == 0 {
		t.Fatal("no newcomer joined the churn config")
	}
	// vary runs cfg once per field of the struct at, that one field changed.
	vary := func(name string, at func(*world.Config) reflect.Value) {
		for i := range at(&cfg).NumField() {
			c := cfg
			f := at(&c).Field(i)
			switch f.Kind() {
			case reflect.Float64:
				f.SetFloat(f.Float() * 2)
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			default:
				t.Fatalf("%s.%s: no variation for a %v field", name, at(&c).Type().Field(i).Name, f.Kind())
			}
			run(c)
			wantComputed++
			check(name + "." + at(&c).Type().Field(i).Name + " changed")
		}
	}
	vary("Costs", func(c *world.Config) reflect.Value { return reflect.ValueOf(&c.Costs).Elem() })
	vary("Churn", func(c *world.Config) reflect.Value { return reflect.ValueOf(&c.Churn).Elem() })

	if again := run(cfg); again != first {
		t.Errorf("an equal config gave a different run: %+v vs %+v", again, first)
	}
	wantHits++
	check("an equal config")
	zero := cfg
	zero.Costs = effort.CostModel{}
	run(zero)
	wantHits++
	check("a zero cost model beside the default")

	tel := telemetry.New()
	ct := cfg
	ct.Telemetry = tel
	run(ct)
	// A recorded event's Seq is its append index, so the newest one's
	// Seq+1 counts every event the sink ever saw.
	appended := func() uint64 {
		ev := tel.Ring().Snapshot()
		if len(ev) == 0 {
			return 0
		}
		return ev[len(ev)-1].Seq + 1
	}
	seen := appended()
	if seen == 0 {
		t.Fatal("the telemetry sink saw no events")
	}
	run(ct)
	wantComputed += 2
	check("a config with a telemetry sink")
	if got := appended(); got != 2*seen {
		t.Errorf("the sink saw %d events over two runs, want %d: a run was served from the memo", got, 2*seen)
	}
}

// TestMemoKeyCoversEveryParameter asserts the memo keys a run on every
// parameter of every built-in adversary: changing any one exported field,
// nested Pulse fields included, computes a separate run, while an unchanged
// adversary is served from the memo.
func TestMemoKeyCoversEveryParameter(t *testing.T) {
	cfg := runnerCfg()
	cfg.Duration = 20 * sim.Day
	pulse := adversary.Pulse{Coverage: 0.5, Duration: 5 * sim.Day, Recuperation: 5 * sim.Day}
	// clone copies an uninstalled adversary, so each run installs its own.
	clone := func(a adversary.Adversary) reflect.Value {
		v := reflect.New(reflect.TypeOf(a).Elem())
		v.Elem().Set(reflect.ValueOf(a).Elem())
		return v
	}
	for _, base := range []adversary.Adversary{
		&adversary.PipeStoppage{Pulse: pulse},
		&adversary.AdmissionFlood{Pulse: pulse},
		&adversary.BruteForce{Defection: adversary.DefectRemaining},
		&adversary.VoteFlood{Pulse: pulse},
	} {
		typ := reflect.TypeOf(base).Elem()
		e := NewEngine(2)
		run := func(a adversary.Adversary) {
			t.Helper()
			mk := func() adversary.Adversary { return clone(a).Interface().(adversary.Adversary) }
			if _, err := e.Run(ctx, cfg, mk, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		run(base)
		run(base)
		if hits, computed := e.MemoStats(); hits != 1 || computed != 1 {
			t.Fatalf("%s: repeat run hits=%d computed=%d, want 1/1", typ.Name(), hits, computed)
		}
		fields := exportedFields(typ, nil)
		if len(fields) == 0 {
			t.Fatalf("%s: no exported fields found", typ.Name())
		}
		for _, idx := range fields {
			v := clone(base)
			path := typ.Name() + "." + typ.FieldByIndex(idx).Name
			bump(t, path, v.Elem().FieldByIndex(idx))
			_, before := e.MemoStats()
			run(v.Interface().(adversary.Adversary))
			if _, after := e.MemoStats(); after != before+1 {
				t.Errorf("changing %s was served from the memo: the key ignores it", path)
			}
		}
	}
}

// exportedFields lists the index path of every exported non-struct field
// of t, descending into exported struct fields such as Pulse.
func exportedFields(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		idx := append(slices.Clone(prefix), i)
		if sf.Type.Kind() == reflect.Struct {
			out = append(out, exportedFields(sf.Type, idx)...)
		} else {
			out = append(out, idx)
		}
	}
	return out
}

// bump changes a scalar field to a different valid value.
func bump(t *testing.T, path string, f reflect.Value) {
	switch f.Kind() {
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.25)
	case reflect.Int, reflect.Int64:
		if f.Type() == reflect.TypeOf(sim.Duration(0)) {
			f.SetInt(f.Int() + int64(sim.Day))
		} else {
			f.SetInt(f.Int() + 1)
		}
	case reflect.Uint8, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	default:
		t.Fatalf("%s: no way to change a %v field", path, f.Kind())
	}
}

// hookedStoppage is a caller's own adversary with a func field: it cannot
// be keyed exactly, so the engine must run it unmemoized.
type hookedStoppage struct {
	adversary.PipeStoppage
	onInstall func()
}

func (h *hookedStoppage) Install(w *world.World) {
	h.onInstall()
	h.PipeStoppage.Install(w)
}

// TestUnkeyableAdversaryRunsUnmemoized asserts an adversary without an
// exact key — Combined, or a caller's type holding a func — is computed on
// every request, layer 0 of a stack included, without a panic, and that the
// results still agree.
func TestUnkeyableAdversaryRunsUnmemoized(t *testing.T) {
	cfg := runnerCfg()
	var installs atomic.Int32
	hooked := func() adversary.Adversary {
		return &hookedStoppage{PipeStoppage: *runnerAttack().(*adversary.PipeStoppage),
			onInstall: func() { installs.Add(1) }}
	}
	for _, mk := range []func() adversary.Adversary{
		hooked,
		func() adversary.Adversary { return &adversary.Combined{Parts: []adversary.Adversary{hooked()}} },
	} {
		installs.Store(0)
		e := NewEngine(2)
		plain, err := e.Run(ctx, cfg, mk, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := e.Run(ctx, cfg, mk, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(ctx, cfg, mk, 1, 2); err != nil {
			t.Fatal(err)
		}
		if plain != again {
			t.Errorf("unmemoized repeat differs: %+v vs %+v", again, plain)
		}
		if hits, computed := e.MemoStats(); hits != 0 || computed != 4 {
			t.Errorf("hits=%d computed=%d, want 0/4: every run computed", hits, computed)
		}
		if installs.Load() != 4 {
			t.Errorf("%d installs for 4 computed runs", installs.Load())
		}
	}
}

// TestEngineAbort asserts a failed leaf run aborts the engine: the real
// error surfaces, and runs submitted afterwards fail fast with errAborted
// instead of executing.
func TestEngineAbort(t *testing.T) {
	e := NewEngine(2)
	bad := runnerCfg()
	bad.Peers = 0 // world.New rejects this
	if _, err := e.Run(ctx, bad, nil, 1, 1); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, err := e.Run(ctx, runnerCfg(), nil, 1, 1); !errors.Is(err, errAborted) {
		t.Fatalf("run after failure: err = %v, want errAborted", err)
	}
	// A fan-out containing one bad config reports the real error, not the
	// abort sentinel, on a fresh engine.
	e2 := NewEngine(2)
	cfgs := []world.Config{runnerCfg(), bad, runnerCfg()}
	_, err := gather(len(cfgs), func(i int) (RunStats, error) {
		return e2.Run(ctx, cfgs[i], nil, 1, 1)
	}, nil)
	if err == nil || errors.Is(err, errAborted) {
		t.Fatalf("fan-out with bad config: err = %v, want the world.New error", err)
	}
}

// TestMemoizedRetryAfterCanceledFlight asserts a waiter with a live
// context does not inherit the cancellation of the flight initiator's
// context: when the shared single-flight baseline never executed, live
// waiters start a fresh flight instead of failing.
func TestMemoizedRetryAfterCanceledFlight(t *testing.T) {
	e := NewEngine(1)
	cfg := runnerCfg()
	started := make(chan struct{})
	release := make(chan struct{})
	go e.memoized(ctx, cfg, nil, 0, func() (runResult, error) {
		close(started)
		<-release
		return runResult{}, context.Canceled // the initiator's ctx was canceled
	})
	<-started
	done := make(chan struct{})
	var got runResult
	var err error
	go func() {
		defer close(done)
		got, err = e.memoized(ctx, cfg, nil, 0, func() (runResult, error) {
			return runResult{stats: RunStats{AccessFailure: 0.5}}, nil
		})
	}()
	// Let the waiter join the in-progress flight, then fail it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-done
	if err != nil {
		t.Fatalf("live waiter inherited the canceled flight: %v", err)
	}
	if got.stats.AccessFailure != 0.5 {
		t.Errorf("waiter got %+v, want the recomputed result", got)
	}
}

// TestGatherAbort asserts a failing job surfaces its error, stops done
// callbacks, and skips jobs that have not started yet.
func TestGatherAbort(t *testing.T) {
	boom := errors.New("boom")
	var emitted atomic.Int32
	_, err := gather(64, func(i int) (int, error) {
		if i == 0 {
			return 0, boom
		}
		return i, nil
	}, func(i int, v int) {
		emitted.Add(1)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure is at index 0, so no done callback may ever fire — later
	// jobs either abort or complete, but the prefix is broken either way.
	if emitted.Load() != 0 {
		t.Errorf("done fired %d times after index-0 failure", emitted.Load())
	}
}

// TestGatherOrder asserts gather delivers done callbacks and results in
// index order regardless of completion order, and bounds nothing.
func TestGatherOrder(t *testing.T) {
	const n = 20
	var running atomic.Int32
	var emitted []int
	results, err := gather(n, func(i int) (int, error) {
		running.Add(1)
		defer running.Add(-1)
		// Finish in roughly reverse order by spinning longer for low
		// indexes; ordering must still come out strictly ascending.
		for j := 0; j < (n-i)*1000; j++ {
			_ = j
		}
		return i * i, nil
	}, func(i int, v int) {
		if v != i*i {
			t.Errorf("done(%d) got %d", i, v)
		}
		emitted = append(emitted, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Errorf("results[%d] = %d", i, v)
		}
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d callbacks, want %d", len(emitted), n)
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("done callbacks out of order: %v", emitted)
		}
	}
}

// TestProgressReachesEveryRun asserts ProgressSink hears from every
// simulation run, not only plain ones: each layer of a stacked run and each
// seeded churn run reports. A run's first report lands at exactly
// progressStride events, so counting those counts the runs that reported.
func TestProgressReachesEveryRun(t *testing.T) {
	defer func(stride uint64) { ProgressSink, progressStride = nil, stride }(progressStride)
	progressStride = 1 << 12
	var reports, runs atomic.Int32
	ProgressSink = func(vt sim.Time, events uint64) {
		reports.Add(1)
		if events == progressStride {
			runs.Add(1)
		}
	}

	if _, err := NewEngine(2).Run(ctx, runnerCfg(), nil, 1, 3); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("3-layer run: %d runs reported progress (%d reports), want all 3 layers", got, reports.Load())
	}

	reports.Store(0)
	runs.Store(0)
	o := Options{Scale: ScaleTiny, Seeds: 1}
	pts, err := scenarioExtensionChurn.Points(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenarioExtensionChurn.runPoint(ctx, NewEngine(1), o, pts[0]); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("churn point: %d runs reported progress (%d reports), want 1", got, reports.Load())
	}
}

// TestPointProgressOrder asserts Options.Progress delivers per-point lines
// in serial order at any worker count, as it promises.
func TestPointProgressOrder(t *testing.T) {
	spec := &Scenario{
		Name: "progress-order",
		Base: scenarioTestConfig,
		Axes: []Axis{{Name: "coverage", Values: []float64{0.25, 0.5, 0.75, 1}}},
		Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
			return &adversary.PipeStoppage{Pulse: adversary.Pulse{
				Coverage: pt.At(0), Duration: 30 * sim.Day, Recuperation: 15 * sim.Day,
			}}
		},
		Seeds:   2,
		Compare: true,
	}
	lines := func(workers int) []string {
		var out []string
		o := Options{Scale: ScaleTiny, Engine: NewEngine(workers),
			Progress: func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }}
		if _, err := RunScenario(ctx, spec, o); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, wide := lines(1), lines(8)
	if len(serial) != 4 {
		t.Fatalf("%d progress lines, want one per point:\n%s", len(serial), strings.Join(serial, "\n"))
	}
	if !slices.Equal(serial, wide) {
		t.Errorf("progress lines differ across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			strings.Join(serial, "\n"), strings.Join(wide, "\n"))
	}
}
