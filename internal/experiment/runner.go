package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lockss/internal/adversary"
	"lockss/internal/world"
)

// Engine schedules independent simulation runs across a bounded worker pool.
//
// Every (config, seed) run is a self-contained single-goroutine computation,
// so the engine fans them out freely: seeds of an averaged run, data points
// of a figure sweep, and layers 1..n-1 of a layered run (layer 0 must finish
// first — it measures the background load replayed beneath the others) all
// execute concurrently, bounded by the worker count. Results are combined in
// the same order as the serial loops they replace, and per-run seeds use the
// same derivation, so output is bit-identical at any worker count.
//
// Run takes a context.Context. Cancellation is cooperative at run
// granularity: a leaf simulation cannot be interrupted once started, but
// runs still queued behind the semaphore (and callers waiting on a memo
// flight or a slot) return ctx.Err() promptly.
//
// Every world run is memoized by its world.Config, its adversary's
// parameters and its layer in a stack, so scenarios that share a baseline or
// an attack run compute it once, and a layered stack takes its layer 0 (with
// the load it measured) from the plain run of the same point. A run is a
// pure function of that key, so results stay bit-identical. A built-in
// adversary's value before Install is its parameter set and serves as the
// key; any other adversary (Combined, a caller's own type) runs unmemoized.
// The config, cost model and churn included, is keyed by value; a config
// with a Telemetry sink runs unmemoized, so the sink sees every run's events.
// Memoized runs are single-flight: concurrent requests for the same run wait
// for the first computation instead of duplicating it.
//
// A failed run aborts the engine: runs still queued fail fast instead of
// completing simulations whose results would be discarded. Discard the
// engine after a failure; a fresh NewEngine costs nothing. Context
// cancellation does not abort the engine — it only abandons the canceled
// call chain.
type Engine struct {
	workers int
	sem     chan struct{}
	// aborted is set when any leaf run fails. Runs still queued behind the
	// semaphore then fail fast with errAborted instead of burning worker
	// slots on results that will be discarded; the engine stays aborted,
	// matching the CLI's fail-on-first-error behavior.
	aborted atomic.Bool

	mu     sync.Mutex
	memo   map[world.Config][]memoRun
	hits   uint64
	misses uint64
}

// memoRun is one memoized world run of the config its memo slot is keyed
// by. The memo stays small: one map slot per config, and a finished run
// keeps its result inline and drops its flight.
type memoRun struct {
	adv    any // the adversary's key (adversaryKey); nil for no attack
	layer  int // the run's layer in its stack; 0 is the plain run
	flight *flight
	res    runResult // valid once flight is nil
}

// flight is a run in progress, kept after completion only if it failed.
type flight struct {
	done chan struct{}
	res  runResult
	err  error
}

// runResult is one world run's outcome and, for layer 0, the per-peer task
// load it measured (measureLoad), which a stack replays beneath its upper
// layers.
type runResult struct {
	stats                RunStats
	ratePerNs, meanDurNs float64
}

// NewEngine returns an engine running at most workers simulations at once;
// workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		memo:    make(map[world.Config][]memoRun),
	}
}

// defaultSem is the process-wide worker pool behind the package-level Run
// and engine-less Options.
var defaultSem = sync.OnceValue(func() chan struct{} {
	return make(chan struct{}, runtime.GOMAXPROCS(0))
})

// newSharedEngine returns an engine with a fresh memo and abort state that
// draws slots from the process-wide pool. Library callers who parallelize
// their own calls to the package-level Run therefore compose: every
// simulation in the process contends for the same GOMAXPROCS slots instead
// of each call spawning its own full-width pool.
func newSharedEngine() *Engine {
	sem := defaultSem()
	return &Engine{
		workers: cap(sem),
		sem:     sem,
		memo:    make(map[world.Config][]memoRun),
	}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// MemoStats reports how many world runs were served from the memo versus
// computed; unmemoized runs count as computed.
func (e *Engine) MemoStats() (hits, misses uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses
}

// withSlot runs one leaf computation under a worker slot. Only leaf
// simulation runs hold slots — orchestration layers (seed and point fan-out,
// memo waits) block without one, so nesting cannot deadlock the pool. The
// abort flag and the context are re-checked after the slot is acquired, so
// runs that were queued when an earlier run failed (or the caller canceled)
// are skipped rather than executed.
func (e *Engine) withSlot(ctx context.Context, fn func() error) error {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.sem }()
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.aborted.Load() {
		return errAborted
	}
	if err := fn(); err != nil {
		e.aborted.Store(true)
		return err
	}
	return nil
}

// skippedErr reports whether err marks a run that never executed (abort
// fast-path or context cancellation) rather than a real failure.
func skippedErr(err error) bool {
	return errors.Is(err, errAborted) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// memoized returns the result of the run (cfg, adv, layer), computing it
// single-flight on first request. compute must not hold a worker slot on
// entry. Waiters observing their own cancellation stop waiting; a flight
// that never executed (the initiator's context was canceled, or the engine
// aborted before it ran) is evicted and live waiters retry with a fresh
// flight rather than inheriting the initiator's error.
func (e *Engine) memoized(ctx context.Context, cfg world.Config, adv any, layer int, compute func() (runResult, error)) (runResult, error) {
	for {
		e.mu.Lock()
		runs := e.memo[cfg]
		if i := findRun(runs, adv, layer); i >= 0 {
			e.hits++
			r := runs[i]
			e.mu.Unlock()
			if r.flight == nil {
				return r.res, nil
			}
			select {
			case <-r.flight.done:
				if skippedErr(r.flight.err) {
					// The flight never executed; the initiator already
					// evicted it. Retry unless this caller is canceled too.
					if err := ctx.Err(); err != nil {
						return runResult{}, err
					}
					continue
				}
				return r.flight.res, r.flight.err
			case <-ctx.Done():
				return runResult{}, ctx.Err()
			}
		}
		// Grow the config's runs by exactly one: most configs hold a few
		// runs, and append's doubling would leave a third of them unused.
		f := &flight{done: make(chan struct{})}
		grown := make([]memoRun, len(runs)+1)
		copy(grown, runs)
		grown[len(runs)] = memoRun{adv: adv, layer: layer, flight: f}
		e.memo[cfg] = grown
		e.misses++
		e.mu.Unlock()
		f.res, f.err = compute()
		// Settle the entry before waking waiters: a skipped run is evicted
		// (the sentinel must not shadow the root cause for future requests,
		// and waiters' retries start a fresh flight); a finished one keeps
		// its result inline; a failed one keeps its flight and error.
		e.mu.Lock()
		runs = e.memo[cfg]
		i := findRun(runs, adv, layer)
		switch {
		case skippedErr(f.err):
			if runs = slices.Delete(runs, i, i+1); len(runs) == 0 {
				delete(e.memo, cfg)
			} else {
				e.memo[cfg] = runs
			}
		case f.err == nil:
			runs[i].res, runs[i].flight = f.res, nil
		}
		e.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// findRun returns the index of the run (adv, layer) in runs, or -1.
func findRun(runs []memoRun, adv any, layer int) int {
	for i := range runs {
		if runs[i].layer == layer && runs[i].adv == adv {
			return i
		}
	}
	return -1
}

// adversaryKey returns the memo key of the adversaries mkAttack builds: the
// value of a fresh one, before Install, which for each built-in strategy is
// exactly its parameter set. A nil mkAttack keys as nil. ok is false for any
// other adversary: Combined holds a slice, and a caller's own type may hold
// anything, so neither can be keyed exactly.
func adversaryKey(mkAttack func() adversary.Adversary) (key any, ok bool) {
	if mkAttack == nil {
		return nil, true
	}
	switch a := mkAttack().(type) {
	case *adversary.PipeStoppage:
		return *a, true
	case *adversary.AdmissionFlood:
		return *a, true
	case *adversary.BruteForce:
		return *a, true
	case *adversary.VoteFlood:
		return *a, true
	}
	return nil, false
}

// Run executes cfg at seeds consecutive derived seeds (seedConfig) and
// averages them in seed order. Each seed is a stack of layers runs, the
// paper's §6.3 technique: layer 0 first, since it measures the load replayed
// beneath the others, then layers 1..n-1 concurrently, combined in layer
// order; one layer is a plain run. Every run is memoized (see Engine).
// mkAttack may be nil for a baseline; seeds and layers must be at least 1.
func (e *Engine) Run(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, seeds, layers int) (RunStats, error) {
	if seeds < 1 {
		return RunStats{}, fmt.Errorf("experiment: seeds must be at least 1, got %d", seeds)
	}
	if layers < 1 {
		return RunStats{}, fmt.Errorf("experiment: layers must be at least 1, got %d", layers)
	}
	ctx = orBackground(ctx)
	adv, keyed := adversaryKey(mkAttack)
	keyed = keyed && cfg.Telemetry == nil
	cfg.Costs = cfg.CostModel() // a zero model and the default are one run
	runs, err := gather(seeds, func(s int) (RunStats, error) {
		return e.runStack(ctx, seedConfig(cfg, s), mkAttack, adv, keyed, layers)
	}, nil)
	if err != nil {
		return RunStats{}, err
	}
	return average(runs), nil
}

// runStack executes one seed's stack of layers.
func (e *Engine) runStack(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, adv any, keyed bool, layers int) (RunStats, error) {
	first, err := e.runLeaf(ctx, cfg, mkAttack, adv, keyed, 0, runResult{})
	if err != nil || layers == 1 {
		return first.stats, err
	}
	rest, err := gather(layers-1, func(i int) (RunStats, error) {
		r, err := e.runLeaf(ctx, cfg, mkAttack, adv, keyed, i+1, first)
		return r.stats, err
	}, nil)
	if err != nil {
		return RunStats{}, err
	}
	return combineLayers(append([]RunStats{first.stats}, rest...)), nil
}

// runLeaf returns the run at layer of cfg's stack, memoized under (cfg,
// adv, layer) when keyed and computed under a worker slot. Layer 0 is the
// plain run, which measures the load replayed beneath each layer above it;
// below is layer 0's result.
func (e *Engine) runLeaf(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, adv any, keyed bool, layer int, below runResult) (runResult, error) {
	compute := func() (r runResult, err error) {
		err = e.withSlot(ctx, func() error {
			if layer > 0 {
				var ferr error
				r.stats, ferr = runLayer(cfg, mkAttack, layer, below.ratePerNs, below.meanDurNs)
				return ferr
			}
			w, err := runWorld(cfg, func(w *world.World) { attach(w, mkAttack) })
			if err != nil {
				return err
			}
			r.stats = statsFromWorld(w)
			r.ratePerNs, r.meanDurNs = measureLoad(w)
			return nil
		})
		return r, err
	}
	if keyed {
		return e.memoized(ctx, cfg, adv, layer, compute)
	}
	e.mu.Lock()
	e.misses++
	e.mu.Unlock()
	return compute()
}

// attach installs a fresh adversary from mkAttack; nil installs none.
func attach(w *world.World, mkAttack func() adversary.Adversary) {
	if mkAttack != nil {
		mkAttack().Install(w)
	}
}

// orBackground guards against nil contexts at the engine's public surface.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// errAborted marks jobs skipped because an earlier-completing job failed.
var errAborted = errors.New("aborted after earlier failure")

// gather evaluates n independent jobs concurrently and returns their results
// in index order. done, if non-nil, is called in strict index order as each
// prefix completes, so progress reporting and row emission keep the serial
// order at any worker count. After any job fails, jobs that have not yet
// started are skipped (in-flight simulations cannot be interrupted) and the
// lowest-index real error is returned; context errors count as real, so a
// canceled fan-out surfaces ctx.Err().
func gather[T any](n int, run func(i int) (T, error), done func(i int, v T)) ([]T, error) {
	if n == 1 {
		v, err := run(0)
		if err != nil {
			return nil, err
		}
		if done != nil {
			done(0, v)
		}
		return []T{v}, nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var failed atomic.Bool
	for i := 0; i < n; i++ {
		go func(i int) {
			defer close(ready[i])
			if failed.Load() {
				errs[i] = errAborted
				return
			}
			results[i], errs[i] = run(i)
			if errs[i] != nil {
				failed.Store(true)
			}
		}(i)
	}
	var firstErr error
	broken := false
	for i := 0; i < n; i++ {
		<-ready[i]
		if errs[i] != nil {
			broken = true
			if firstErr == nil && !errors.Is(errs[i], errAborted) {
				firstErr = errs[i]
			}
			continue
		}
		if !broken && done != nil {
			done(i, results[i])
		}
	}
	if broken {
		if firstErr == nil {
			firstErr = errAborted
		}
		return nil, firstErr
	}
	return results, nil
}
