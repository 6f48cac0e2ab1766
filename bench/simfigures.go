package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"lockss/internal/experiment"
)

// figureScenarios are the twelve paper scenarios with tiny-scale goldens, in
// the order `lockss-sim -figure all` emits them.
var figureScenarios = []string{
	"figure2",
	"figures-pipe-stoppage",
	"figures-admission-flood",
	"table1",
	"ablation-refractory",
	"ablation-drop-prob",
	"ablation-introductions",
	"ablation-desynchronization",
	"ablation-effort-balancing",
	"extension-churn",
	"extension-adaptive",
	"extension-combined",
}

// scenarioFamily names the per-layer span metric a scenario's time goes to.
func scenarioFamily(name string) string {
	switch {
	case name == "figure2":
		return "experiment.figure2_s"
	case name == "figures-pipe-stoppage":
		return "experiment.pipe_stoppage_s"
	case name == "figures-admission-flood":
		return "experiment.admission_flood_s"
	case name == "table1":
		return "experiment.table1_s"
	case strings.HasPrefix(name, "ablation-"):
		return "experiment.ablations_s"
	default:
		return "experiment.extensions_s"
	}
}

func goldenPath(root, name string) string {
	return filepath.Join(root, "internal", "experiment", "testdata", "golden", name+".golden")
}

func renderTables(ts []*experiment.Table) []byte {
	var buf bytes.Buffer
	for _, t := range ts {
		t.Fprint(&buf)
	}
	return buf.Bytes()
}

// runSimFigures is the researcher's end: the twelve paper scenarios at
// ScaleTiny through one shared engine, whole passes until the time is up.
// Each pass gets a fresh engine so every pass does the same work (a shared
// one would serve the second pass's baselines from its memo).
func runSimFigures(rc *runCtx) error {
	scenarios := figureScenarios
	if rc.scale < 1 {
		scenarios = []string{"figure2", "ablation-drop-prob"} // smoke: the two cheapest families
	}
	workers := runtime.NumCPU()

	// Set-up is the engine, the registry lookups and the sweep grids. It is
	// tens of microseconds, so it is timed many times over for a steady
	// median.
	build := func() (*experiment.Engine, []*experiment.Scenario, experiment.Options, error) {
		eng := experiment.NewEngine(workers)
		o := experiment.Options{Scale: experiment.ScaleTiny, BaseSeed: rc.seed - 1, Engine: eng}
		specs := make([]*experiment.Scenario, 0, len(scenarios))
		for _, name := range scenarios {
			spec, ok := experiment.Lookup(name)
			if !ok {
				return nil, nil, o, fmt.Errorf("scenario %q is not registered", name)
			}
			if _, err := spec.Points(o); err != nil {
				return nil, nil, o, err
			}
			specs = append(specs, spec)
		}
		return eng, specs, o, nil
	}
	for i := 0; i < 200; i++ {
		sw := startWatch()
		if _, _, _, err := build(); err != nil {
			return err
		}
		rc.setup(sw.wall())
	}

	var points, failedPoints, passes int
	var wall, cpu float64
	var passWalls []float64
	var lastEng *experiment.Engine
	// Whole passes, as many as fit in the time allowed and at least one. (A
	// pass takes 12 s; "start another while any time is left" would make
	// every run two passes long, and the driver's runs have an hour in all.)
	for passes == 0 || wall+wall/float64(passes) <= rc.seconds {
		eng, specs, o, err := build()
		if err != nil {
			return err
		}
		passSpan := rc.rec.start(0, "bench.pass")
		sw := startWatch()
		for _, spec := range specs {
			var res *experiment.Result
			var runErr error
			rc.rec.do(passSpan, "experiment.RunScenario:"+spec.Name, func() {
				res, runErr = experiment.RunScenario(context.Background(), spec, o)
			})
			if runErr != nil {
				// The engine aborts on the first failed run, so the
				// scenario's points all count as failed.
				pts, _ := spec.Points(o)
				failedPoints += len(pts)
				points += len(pts)
				rc.res.violate("scenario %s: %v", spec.Name, runErr)
				continue
			}
			points += len(res.Points)
			if rc.seed == 1 && rc.scale == 1 {
				got := renderTables(spec.Render(o, res))
				want, err := os.ReadFile(goldenPath(rc.root, spec.Name))
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					rc.res.violate("scenario %s diverges from its golden", spec.Name)
				}
			}
		}
		pw := sw.wall()
		cpu += sw.cpu()
		wall += pw
		passWalls = append(passWalls, pw)
		rc.rec.end(passSpan)
		passes++
		lastEng = eng
	}

	heap := liveHeap()
	runtime.KeepAlive(lastEng)

	rc.ops(points, failedPoints)
	rc.note("passes", float64(passes))
	rc.note("grid_points_per_pass", float64(points/passes))
	rc.e2e("work_per_s", float64(points)/wall, points)
	rc.e2e("cpu_us_per_unit", cpu*1e6/float64(points), points)
	rc.e2e("latency_mean_ms", mean(passWalls)*1e3, passes)
	rc.e2e("live_heap_mb", float64(heap)/1e6, 1)
	rc.named("sim_points_per_s", float64(points)/wall, points)

	if rc.traced() {
		spans := durations(rc.rec.snapshot())
		byFamily := map[string]float64{}
		for _, name := range scenarios {
			perPass := spans["experiment.RunScenario:"+name] / float64(passes)
			rc.note("span_s:"+name, perPass)
			byFamily[scenarioFamily(name)] += perPass
		}
		for fam, s := range byFamily {
			rc.layer(fam, s)
		}
		hits, misses := lastEng.MemoStats()
		if hits+misses > 0 {
			rc.layer("experiment.memo_hit_ratio", float64(hits)/float64(hits+misses))
		}
		probeSimLayers(rc)
		probePollRound(rc)
	}
	return nil
}
