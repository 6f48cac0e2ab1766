// Command bench is this repository's one benchmark. It measures both ends of
// the system from outside, through the packages' public functions only: the
// researcher regenerating the paper's figures on the simulator, and the
// operator whose real nodes must audit and repair real bytes under attack.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains them.
//
//	go run -C bench . -workload sim-large -seed 1 -trace 0
//	go run -C bench .                       # every workload, untraced
//	go run -C bench . -trace 1              # every workload, traced: per-layer metrics
//	go run -C bench . -runs 5 -o a.json     # a set of runs, for -compare
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workloads maps the names in BENCHMARK.json to their implementations.
var workloads = map[string]func(*runCtx) error{
	"sim-figures":   runSimFigures,
	"sim-large":     runSimLarge,
	"cluster-audit": runClusterAudit,
	"cluster-flood": runClusterFlood,
	"store-archive": runStoreArchive,
}

// runCtx is what a workload sees of one run.
type runCtx struct {
	spec    *benchSpec
	root    string // repository root
	tmp     string // this run's scratch directory, removed when the run ends
	seed    uint64
	seconds float64
	// scale shrinks repetition counts and sizes for the smoke test; the
	// benchmark itself always runs at 1.
	scale float64
	// rec is nil on an untraced run.
	rec    *recorder
	res    *result
	setups []float64
	// headline is the run's cpu_us_per_unit whether traced or not, for the
	// tracing-overhead ratio.
	headline float64
}

func (rc *runCtx) traced() bool { return rc.rec != nil }

// scaled shrinks a count for the smoke test, never below lo.
func (rc *runCtx) scaled(n, lo int) int {
	return max(lo, int(math.Round(float64(n)*rc.scale)))
}

// setup records one timing of the workload's input construction; the run
// reports the median of them as setup_s.
func (rc *runCtx) setup(seconds float64) { rc.setups = append(rc.setups, seconds) }

func (rc *runCtx) put(name string, v float64, n int) {
	ms, ok := rc.spec.metric(name)
	if !ok {
		rc.res.violate("metric %q is not declared in BENCHMARK.json", name)
		return
	}
	if _, dup := rc.res.Metrics[name]; dup {
		rc.res.violate("metric %q reported twice", name)
		return
	}
	rc.res.Metrics[name] = value{Value: v, Unit: ms.Unit, Better: ms.Better, N: n, Bound: ms.Bound}
}

// e2e reports an end-to-end contract metric; end-to-end numbers always come
// from the untraced run, so a traced run drops them.
func (rc *runCtx) e2e(name string, v float64, n int) {
	if name == "cpu_us_per_unit" {
		rc.headline = v
	}
	if !rc.traced() {
		rc.put(name, v, n)
	}
}

// named reports one of the workload-specific end-to-end metrics.
func (rc *runCtx) named(name string, v float64, n int) {
	if rc.traced() {
		return
	}
	ms, ok := namedSpecs[name]
	if !ok {
		rc.res.violate("named metric %q has no declaration", name)
	}
	rc.res.Named[name] = value{Value: v, Unit: ms.Unit, Better: ms.Better, N: n, Bound: ms.Bound}
}

// layer reports a per-layer contract metric; only a traced run has them.
func (rc *runCtx) layer(name string, v float64) {
	if rc.traced() {
		rc.put(name, v, 0)
	}
}

func (rc *runCtx) note(name string, v float64) { rc.res.Notes[name] = v }

// ops counts operations attempted and failed; every workload counts its own
// kind (scenario points, polls and injections, store calls).
func (rc *runCtx) ops(attempted, failed int) {
	rc.res.Attempted += attempted
	rc.res.Failed += failed
}

// outDir is where every artefact goes: bench/out under the repository root.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// runOne runs one workload once and returns its finished result.
func runOne(spec *benchSpec, root, out, name string, seed uint64, seconds, scale float64, traced bool) (res *result, err error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	// Temp stores go away on every exit path: normal return and panic here,
	// signals in main.
	tmpDirs.add(tmp)
	defer tmpDirs.remove(tmp)

	res = &result{
		Workload: name, Traced: traced, Seed: seed, Seconds: seconds, Scale: scale,
		Env: readEnv(root, tmp), Valid: true, Correct: true,
		Metrics: map[string]value{}, Named: map[string]value{}, Notes: map[string]float64{},
	}
	rc := &runCtx{spec: spec, root: root, tmp: tmp, seed: seed, seconds: seconds, scale: scale, res: res}
	if traced {
		rc.rec = newRecorder(fmt.Sprintf("%s-seed%d", name, seed))
	}

	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("workload %s panicked: %v", name, p)
			}
		}()
		err = fn(rc)
	}()
	res.WallS = time.Since(start).Seconds()
	if err != nil {
		return res, err
	}
	rc.finish()

	if traced {
		if err := writeTrace(filepath.Join(out, "trace-"+name+".json"), name, rc.rec.snapshot()); err != nil {
			return res, err
		}
		if prev, err := readResults(filepath.Join(out, "result-"+name+".json")); err == nil && len(prev) == 1 {
			if base := prev[0].Metrics["cpu_us_per_unit"].Value; base > 0 {
				res.TraceOverheadRatio = rc.headline / base
			}
		}
	}
	suffix := ""
	if traced {
		suffix = "-traced"
	}
	if err := writeJSON(filepath.Join(out, "result-"+name+suffix+".json"), res); err != nil {
		return res, err
	}
	return res, nil
}

// finish completes the contract: setup_s from the setup timings, zeros for
// the per-layer metrics of layers this workload does not exercise, and a
// check that every declared metric is present and finite.
func (rc *runCtx) finish() {
	res := rc.res
	want := rc.spec.EndToEnd
	if rc.traced() {
		want = rc.spec.PerLayer
		for _, m := range want {
			if _, ok := res.Metrics[m.Name]; !ok {
				rc.put(m.Name, 0, 0)
			}
		}
	} else {
		if len(rc.setups) == 0 {
			res.violate("workload recorded no set-up time")
		} else {
			rc.put("setup_s", median(rc.setups), len(rc.setups))
		}
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			res.violate("metric %q was not reported", m.Name)
		case !finite(v.Value):
			res.violate("metric %q is not finite", m.Name)
		case !rc.traced() && v.Value == 0:
			res.violate("end-to-end metric %q is zero", m.Name)
		}
	}
	if res.Attempted < 1 {
		res.violate("no operation was attempted")
	}
	if res.Env.CPUs < 2 || res.Env.FloodMaxLatenessMs > 50 {
		res.Valid = false
	}
}

// summaryLine is the one JSON object the driver reads: the last line of
// standard output.
func summaryLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings cannot fail to marshal
	return string(b)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult writes the human-readable table of one result.
func printResult(res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %.1fs wall, valid=%v, correct=%v, ops %d/%d failed) ==\n",
		res.Workload, mode, res.Seed, res.WallS, res.Valid, res.Correct, res.Failed, res.Attempted)
	for _, group := range []map[string]value{res.Metrics, res.Named} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := group[n]
			extra := ""
			if v.N > 0 {
				extra += fmt.Sprintf(" n=%d", v.N)
			}
			if v.Bound > 0 {
				extra += fmt.Sprintf(" bound=%g", v.Bound)
			}
			fmt.Printf("  %-36s %16.6g %-9s %-6s%s\n", n, v.Value, v.Unit, v.Better, extra)
		}
	}
	if res.TraceOverheadRatio > 0 {
		fmt.Printf("  %-36s %16.6g\n", "trace_overhead_ratio", res.TraceOverheadRatio)
	}
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// tmpDirs tracks live scratch directories so a signal can remove them.
var tmpDirs = &dirSet{dirs: map[string]bool{}}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "seed for every random choice; 1 also enables the golden checks")
		seconds  = flag.Float64("seconds", 0, "how long each run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: spans to out/trace-<workload>.json, per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...; the set is written to -o")
		outFile  = flag.String("o", "", "write the set of results here (default out/results.json)")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *seed == 0 || *runs < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seed and -runs must be at least 1, -trace 0 or 1")
		return 2
	}

	var names []string
	if *workload == "all" {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else {
		names = []string{*workload}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		tmpDirs.removeAll()
		os.Exit(130)
	}()

	var set []*result
	ok := true
	for r := 0; r < *runs; r++ {
		for _, name := range names {
			res, err := runOne(spec, root, outDir(root), name, *seed+uint64(r), *seconds, 1, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printResult(res)
			set = append(set, res)
			ok = ok && res.Correct
			runtime.GC() // one workload's garbage is not the next one's heap
		}
	}
	if len(set) > 1 || *outFile != "" {
		path := *outFile
		if path == "" {
			path = filepath.Join(outDir(root), "results.json")
		}
		if err := writeJSON(path, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-readable summary. A
	// run of several workloads has no single one, so it repeats the last.
	fmt.Println(summaryLine(set[len(set)-1]))
	if !ok {
		return 1
	}
	return 0
}

func main() { os.Exit(realMain()) }
