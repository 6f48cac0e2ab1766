package store

import (
	"sync"
	"time"
)

// commitInterval bounds how long a dirty manifest may sit in memory before
// the committer flushes it to disk: mutations arriving inside one window
// share a single fsync train.
const commitInterval = 2 * time.Millisecond

// committer is the store's group-commit goroutine: manifest mutations mark
// their replica dirty and return; the committer coalesces everything dirty
// into batched atomic replacements — one write (and one fsync train) per
// replica per group, no matter how many mutations landed in the window.
//
// Durability contract: a mutation is durable once a flush train that started
// after it completes. Paths that must not return before their manifest is on
// disk (repairs) call Flush, which triggers an immediate train and waits;
// concurrent Flush callers share one train. Everything else (scrub marks,
// damage marks) rides the commitInterval timer — those marks are re-derivable
// from the block bytes by the next scrub pass, so deferring them never
// weakens what a crash can lose. The blocks-fsynced-before-manifest invariant
// is untouched: block writes still fsync before the mutation that marks the
// manifest dirty, and the manifest itself is still only ever replaced
// atomically, so a kill -9 inside a commit window leaves every manifest
// loadable at either its old or its new generation.
type committer struct {
	st       *Store
	interval time.Duration

	mu    sync.Mutex
	dirty map[*Replica]struct{}

	// wake (capacity 1) nudges the run loop when the dirty set becomes
	// non-empty; flushReq carries Flush barriers, answered with the first
	// error of their train.
	wake     chan struct{}
	flushReq chan chan error
	stop     chan struct{}
	done     chan struct{}
}

func newCommitter(st *Store, interval time.Duration) *committer {
	c := &committer{
		st:       st,
		interval: interval,
		dirty:    make(map[*Replica]struct{}),
		wake:     make(chan struct{}, 1),
		flushReq: make(chan chan error),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.run()
	return c
}

// markDirty schedules r's manifest for the next commit train.
func (c *committer) markDirty(r *Replica) {
	c.mu.Lock()
	c.dirty[r] = struct{}{}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// flush triggers an immediate commit train covering every mutation enqueued
// before the call and waits for it, returning the train's first error. Safe
// concurrently; concurrent callers share one train.
func (c *committer) flush() error {
	w := make(chan error, 1)
	select {
	case c.flushReq <- w:
		select {
		case err := <-w:
			return err
		case <-c.done:
			// The committer stopped while our train was forming; close's
			// final drain flushed everything that was dirty.
			return nil
		}
	case <-c.done:
		// Already closed: close's final drain covered our mutations.
		return nil
	}
}

// close stops the run loop after one final drain of the dirty set.
func (c *committer) close() {
	close(c.stop)
	<-c.done
}

// run is the committer goroutine.
func (c *committer) run() {
	defer close(c.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	disarm := func() {
		if armed && !timer.Stop() {
			<-timer.C
		}
		armed = false
	}
	for {
		select {
		case <-c.wake:
			if !armed {
				timer.Reset(c.interval)
				armed = true
			}
		case w := <-c.flushReq:
			// Coalesce every barrier (and wake) that is already pending into
			// this train, then flush immediately: barriers want durability
			// now, and batching across them is where repairs that land
			// together share one fsync train.
			waiters := []chan error{w}
		drain:
			for {
				select {
				case w2 := <-c.flushReq:
					waiters = append(waiters, w2)
				case <-c.wake:
				default:
					break drain
				}
			}
			disarm()
			err := c.flushBatch()
			for _, w := range waiters {
				w <- err
			}
		case <-timer.C:
			armed = false
			c.flushBatch()
		case <-c.stop:
			disarm()
			c.flushBatch()
			return
		}
	}
}

// flushBatch swaps out the dirty set and persists each replica's manifest
// once. A replica whose persist fails is re-queued, so transient write
// errors retry on the next train instead of silently shedding the mutation;
// the first error is returned to any barrier waiting on this train.
func (c *committer) flushBatch() error {
	c.mu.Lock()
	if len(c.dirty) == 0 {
		c.mu.Unlock()
		return nil
	}
	batch := make([]*Replica, 0, len(c.dirty))
	for r := range c.dirty {
		batch = append(batch, r)
	}
	c.dirty = make(map[*Replica]struct{})
	c.mu.Unlock()

	var firstErr error
	wrote := false
	for _, r := range batch {
		n, err := r.persistNow()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			c.markDirty(r)
			continue
		}
		wrote = wrote || n
	}
	if wrote {
		c.st.manifestCommits.Add(1)
	}
	return firstErr
}

// persistNow writes r's manifest if its in-memory generation is ahead of the
// durable one, reporting whether a write happened. The encode runs under
// r.mu but the IO does not, so votes and scrub reads proceed during the
// write; a mutation racing the write re-marks the replica dirty and lands in
// the next train.
func (r *Replica) persistNow() (bool, error) {
	r.mu.Lock()
	if r.man.gen == r.persistedGen {
		r.mu.Unlock()
		return false, nil
	}
	gen := r.man.gen
	data := r.man.encode()
	r.mu.Unlock()

	if err := writeManifestBytes(r.dir, data, &r.st.fsyncs); err != nil {
		return false, err
	}
	r.st.manifestWrites.Add(1)
	r.mu.Lock()
	if gen > r.persistedGen {
		r.persistedGen = gen
	}
	r.mu.Unlock()
	return true, nil
}

// Flush is the store's durability barrier: it returns once every manifest
// mutation made before the call is on disk (one immediate commit train,
// shared with concurrent callers), or with the train's first error.
func (s *Store) Flush() error {
	return s.committer.flush()
}
