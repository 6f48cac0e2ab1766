package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
// Attack-free runs are memoized by (Config, layers): scenarios share their
// baselines, so a full lockss-sim run stops recomputing them. Attack runs are not
// memoized — adversaries are constructed by closures, which have no identity
// to key on. Memoized entries are single-flight: concurrent requests for the
// same baseline wait for the first computation instead of duplicating it.
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
	memo   map[memoKey]*memoEntry
	hits   uint64
	misses uint64
}

// memoKey identifies an attack-free run. world.Config is a flat value
// struct, so it is directly comparable.
type memoKey struct {
	cfg    world.Config
	layers int
}

type memoEntry struct {
	done  chan struct{}
	stats RunStats
	err   error
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
		memo:    make(map[memoKey]*memoEntry),
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
		memo:    make(map[memoKey]*memoEntry),
	}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// MemoStats reports how many attack-free runs were served from the memo
// versus computed.
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

// memoized returns the cached result for key, computing it single-flight on
// first request. compute must not hold a worker slot on entry. Waiters
// observing their own cancellation stop waiting; a flight that never
// executed (the initiator's context was canceled, or the engine aborted
// before it ran) is evicted and live waiters retry with a fresh flight
// rather than inheriting the initiator's error.
func (e *Engine) memoized(ctx context.Context, key memoKey, compute func() (RunStats, error)) (RunStats, error) {
	for {
		e.mu.Lock()
		if ent, ok := e.memo[key]; ok {
			e.hits++
			e.mu.Unlock()
			select {
			case <-ent.done:
				if skippedErr(ent.err) {
					// The flight never executed; the initiator already
					// evicted it. Retry unless this caller is canceled too.
					if err := ctx.Err(); err != nil {
						return RunStats{}, err
					}
					continue
				}
				return ent.stats, ent.err
			case <-ctx.Done():
				return RunStats{}, ctx.Err()
			}
		}
		ent := &memoEntry{done: make(chan struct{})}
		e.memo[key] = ent
		e.misses++
		e.mu.Unlock()
		ent.stats, ent.err = compute()
		if skippedErr(ent.err) {
			// The run never executed; don't let the sentinel shadow the root
			// cause for future requests. Evict before waking waiters so
			// their retry starts a fresh flight.
			e.mu.Lock()
			delete(e.memo, key)
			e.mu.Unlock()
		}
		close(ent.done)
		return ent.stats, ent.err
	}
}

// Run executes cfg at seeds consecutive derived seeds (seedConfig) and
// averages them in seed order. Each seed is a stack of layers runs, the
// paper's §6.3 technique: layer 0 first, since it measures the load replayed
// beneath the others, then layers 1..n-1 concurrently, combined in layer
// order; one layer is a plain run. Attack-free seeds memoize by (Config,
// layers). mkAttack may be nil for a baseline; seeds and layers must be at
// least 1.
func (e *Engine) Run(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, seeds, layers int) (RunStats, error) {
	if seeds < 1 {
		return RunStats{}, fmt.Errorf("experiment: seeds must be at least 1, got %d", seeds)
	}
	if layers < 1 {
		return RunStats{}, fmt.Errorf("experiment: layers must be at least 1, got %d", layers)
	}
	ctx = orBackground(ctx)
	runs, err := gather(seeds, func(s int) (RunStats, error) {
		c := seedConfig(cfg, s)
		if mkAttack == nil {
			return e.memoized(ctx, memoKey{c, layers}, func() (RunStats, error) {
				return e.runStack(ctx, c, nil, layers)
			})
		}
		return e.runStack(ctx, c, mkAttack, layers)
	}, nil)
	if err != nil {
		return RunStats{}, err
	}
	return average(runs), nil
}

// runStack executes one seed's stack of layers, each run under a worker slot.
func (e *Engine) runStack(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, layers int) (RunStats, error) {
	var first RunStats
	var ratePerNs, meanDurNs float64
	err := e.withSlot(ctx, func() error {
		w, err := runWorld(cfg, func(w *world.World) { attach(w, mkAttack) })
		if err != nil {
			return err
		}
		first = statsFromWorld(w)
		if layers > 1 {
			ratePerNs, meanDurNs = measureLoad(w)
		}
		return nil
	})
	if err != nil || layers == 1 {
		return first, err
	}
	rest, err := gather(layers-1, func(i int) (s RunStats, err error) {
		err = e.withSlot(ctx, func() error {
			var ferr error
			s, ferr = runLayer(cfg, mkAttack, i+1, ratePerNs, meanDurNs)
			return ferr
		})
		return s, err
	}, nil)
	if err != nil {
		return RunStats{}, err
	}
	return combineLayers(append([]RunStats{first}, rest...)), nil
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
