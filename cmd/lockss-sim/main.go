// Command lockss-sim regenerates the evaluation figures and tables of
// "Attrition Defenses for a Peer-to-Peer Digital Preservation System"
// (USENIX 2005) from the simulator in this repository, and runs any
// scenario registered with the declarative scenario API.
//
// Usage:
//
//	lockss-sim                           # the twelve paper scenarios, in paper order
//	lockss-sim -list                     # list registered scenarios
//	lockss-sim -scenario figure2,table1  # run scenarios by registry name
//	lockss-sim -output json              # text | json | csv
//	lockss-sim -scale paper              # tiny | small | paper | large
//	lockss-sim -workers 8                # parallel runs (default: all cores)
//	lockss-sim -progress                 # periodic virtual-time progress lines
//	lockss-sim -seeds 3 -seed 42 -v
//
// -workers parallelizes across independent runs; each run is one engine on
// one goroutine.
//
// Output is bit-identical at any -workers value: runs are scheduled across
// the worker pool but seeded, combined and printed exactly as the serial
// path would. SIGINT/SIGTERM cancel the run: queued simulations are skipped
// and the command exits promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lockss/internal/experiment"
	"lockss/internal/sim"
)

// paperNames is the default set: what runs when -scenario is not given.
func paperNames() []string {
	var names []string
	for _, spec := range experiment.PaperScenarios() {
		names = append(names, spec.Name)
	}
	return names
}

// emitter writes tables in the selected output format.
func emitter(format string) (func(t *experiment.Table) error, error) {
	switch format {
	case "text":
		return func(t *experiment.Table) error { t.Fprint(os.Stdout); return nil }, nil
	case "json":
		// One JSON object per table (JSON Lines).
		return func(t *experiment.Table) error { return t.WriteJSON(os.Stdout) }, nil
	case "csv":
		// Tables are separated by a "# id: title" comment line and a blank
		// line, so a multi-table run stays splittable.
		return func(t *experiment.Table) error {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown output format %q", format)
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the command. It returns the exit status instead of exiting, so the
// deferred profile flushes run on every path: a failed or interrupted
// -cpuprofile run still leaves a readable profile.
func run(args []string) int {
	fs := flag.NewFlagSet("lockss-sim", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "", "comma-separated registered scenario names to run (see -list); default: the paper's evaluation in paper order, "+strings.Join(paperNames(), ","))
		list     = fs.Bool("list", false, "list registered scenarios and exit")
		output   = fs.String("output", "text", "output format: text, json, csv")
		scale    = fs.String("scale", "small", "experiment fidelity: tiny, small, paper, large")
		seeds    = fs.Int("seeds", 0, "seeds per data point (0 = scale default)")
		seed     = fs.Uint64("seed", 0, "base seed offset")
		workers  = fs.Int("workers", 0, "concurrent simulation runs (<=0 = GOMAXPROCS, i.e. all usable cores)")
		progress = fs.Bool("progress", false, "print periodic virtual-time/events-executed progress lines to stderr")
		verbose  = fs.Bool("v", false, "print per-data-point progress")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof  = fs.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "lockss-sim: %v\n", err)
		return 1
	}

	// Profiling hooks, so perf work can profile real scenario runs instead of
	// reduced benchmark stand-ins. Inspect with `go tool pprof`.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC() // settle live objects so the heap profile is current
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "lockss-sim: writing memory profile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, s := range experiment.List() {
			fmt.Printf("%-28s %s\n", s.Name, s.Description)
		}
		fmt.Printf("\ndefault (no -scenario), in paper order: %s\n", strings.Join(paperNames(), ","))
		return 0
	}

	// One engine for the whole invocation: running several scenarios reuses
	// memoized runs across them.
	eng := experiment.NewEngine(*workers)
	opts := experiment.Options{Seeds: *seeds, BaseSeed: *seed, Engine: eng}
	switch strings.ToLower(*scale) {
	case "tiny":
		opts.Scale = experiment.ScaleTiny
	case "small":
		opts.Scale = experiment.ScaleSmall
	case "paper":
		opts.Scale = experiment.ScalePaper
	case "large":
		opts.Scale = experiment.ScaleLarge
	default:
		fmt.Fprintf(os.Stderr, "lockss-sim: unknown scale %q\n", *scale)
		return 2
	}
	if *progress {
		// Rate-limited one-liners: virtual time reached and events executed
		// by the reporting run. Concurrent runs interleave; each line stands
		// alone.
		var lastPrint atomic.Int64
		experiment.ProgressSink = func(vt sim.Time, events uint64) {
			now := time.Now().UnixNano()
			last := lastPrint.Load()
			if now-last < 2*int64(time.Second) || !lastPrint.CompareAndSwap(last, now) {
				return
			}
			fmt.Fprintf(os.Stderr, "progress: vt=%.1fd events=%dM\n",
				float64(vt)/float64(sim.Day), events>>20)
		}
	}
	if *verbose {
		start := time.Now()
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), fmt.Sprintf(format, args...))
		}
	}

	emit, err := emitter(strings.ToLower(*output))
	if err != nil {
		return fail(err)
	}

	names := paperNames()
	if *scenario != "" {
		names = strings.Split(*scenario, ",")
	}

	// SIGINT/SIGTERM cancel the run; queued simulations are skipped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, name := range names {
		name = strings.TrimSpace(name)
		spec, ok := experiment.Lookup(name)
		if !ok {
			return fail(fmt.Errorf("scenario %q not registered (try -list)", name))
		}
		tables, err := spec.Run(ctx, opts)
		if err != nil {
			return fail(err)
		}
		for _, t := range tables {
			if err := emit(t); err != nil {
				return fail(err)
			}
		}
	}

	if *verbose {
		hits, misses := eng.MemoStats()
		fmt.Fprintf(os.Stderr, "engine: %d workers; simulation runs computed=%d served-from-memo=%d\n",
			eng.Workers(), misses, hits)
	}
	return 0
}
