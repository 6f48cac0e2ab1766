package store

import (
	"sync"
	"time"

	"lockss/internal/content"
)

// ScrubConfig paces the background scrubber.
type ScrubConfig struct {
	// Pace is the pause each worker takes between consecutive block
	// verifications. Scrubbing is deliberately slow — the paper's threat is
	// rot over decades, and a scrubber that saturates the disk starves the
	// node it serves. Demos and tests turn it down. Default 1s; negative
	// means no pause (benchmarks).
	Pace time.Duration
	// Workers shards the store across this many concurrent scrub workers:
	// replica i of a pass goes to worker i mod Workers, so throughput
	// scales with AUs instead of serializing thousands of them behind one
	// goroutine. Default 1.
	Workers int
	// Bandwidth is a global read budget in bytes/second shared by every
	// worker through one token bucket — the knob that keeps a many-worker
	// scrub from starving foreground reads no matter how many AUs it
	// shards. 0 means unlimited.
	Bandwidth int64
	// OnDamage, if non-nil, is called for every damaged block each pass
	// observes — newly marked or still unrepaired — so the node can keep
	// the AU's audit priority raised until the damage is gone. With
	// Workers > 1 it is called concurrently from multiple scrub goroutines
	// (outside all store locks) and must not block: a wedged callback
	// wedges the pass and, through StopScrub, Close.
	OnDamage func(au content.AUID, block int)
	// OnPass, if non-nil, is called with the wall-clock duration of each
	// completed pass (aborted passes are not reported). Called from the
	// scrub coordinator goroutine; must not block.
	OnPass func(d time.Duration)

	// passPause is the extra rest between full passes over the store.
	// Zero means 10x Pace (none when Pace is negative); negative means none.
	// Only this package's tests set it.
	passPause time.Duration
}

// withDefaults fills zero fields.
func (c ScrubConfig) withDefaults() ScrubConfig {
	if c.Pace == 0 {
		c.Pace = time.Second
	}
	if c.passPause == 0 && c.Pace > 0 {
		c.passPause = 10 * c.Pace
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// StartScrub launches the background scrubber: an endless, paced
// verification of every block of every AU against its manifest, sharded
// across cfg.Workers goroutines under one shared byte budget. Mismatched
// blocks gain a persisted damage mark (raising their audit priority through
// OnDamage); marked blocks whose bytes verify again — a repair that landed,
// or a crash-interrupted repair whose manifest write never happened — have
// their marks cleared. At most one scrubber runs per store; a second call is
// a no-op while one is active.
func (s *Store) StartScrub(cfg ScrubConfig) {
	cfg = cfg.withDefaults()
	s.mu.Lock()
	if s.scrubStop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	s.scrubStop = stop
	s.scrubPace.Store(int64(cfg.Pace))
	s.scrubBW.Store(cfg.Bandwidth)
	s.scrubBucket = newTokenBucket(cfg.Bandwidth)
	bucket := s.scrubBucket
	s.mu.Unlock()
	s.scrubMu.Lock()
	s.scrubRest = cfg.passPause
	s.scrubMu.Unlock()

	s.scrubWG.Add(1)
	go s.scrubLoop(cfg, bucket, stop)
}

// SetScrubPace retunes the per-block pause of a running scrubber; workers
// pick the new pace up at their next block (their next run of blocks while
// unpaced). Also effective before StartScrub is called again: StartScrub
// resets it from its config. Negative means no pause.
func (s *Store) SetScrubPace(d time.Duration) {
	if d == 0 {
		d = time.Second
	}
	s.scrubPace.Store(int64(d))
	s.scrubRetuned()
}

// ScrubPace reports the scrubber's current per-block pause.
func (s *Store) ScrubPace() time.Duration { return time.Duration(s.scrubPace.Load()) }

// SetScrubBandwidth retunes the scrubber's shared read budget in
// bytes/second (0 = unlimited) without restarting it. Workers blocked in the
// token bucket observe the new rate on their next wakeup.
func (s *Store) SetScrubBandwidth(bytesPerSec int64) {
	s.scrubBW.Store(bytesPerSec)
	s.mu.Lock()
	bucket := s.scrubBucket
	s.mu.Unlock()
	if bucket != nil {
		bucket.setRate(bytesPerSec)
	}
	s.scrubRetuned()
}

// ScrubBandwidth reports the scrubber's current byte budget (0 = unlimited).
func (s *Store) ScrubBandwidth() int64 { return s.scrubBW.Load() }

// StopScrub halts the scrubber and waits for it (and every worker) to exit.
// Safe to call when none is running.
func (s *Store) StopScrub() {
	s.mu.Lock()
	stop := s.scrubStop
	s.scrubStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.scrubWG.Wait()
	s.scrubMu.Lock()
	s.scrubDue = time.Time{}
	s.scrubMu.Unlock()
}

// scrubReadFloor is the slowest read-and-hash rate, in bytes/second, at
// which a scrubber still counts as making progress; scrubSlack absorbs timer
// and scheduling delay.
const (
	scrubReadFloor = 1 << 20
	scrubSlack     = time.Second
)

// ScrubStalled reports whether the running scrubber has gone longer without
// progress than its pace, pass pause and byte budget allow (false while none
// runs). Each sign of progress (a pass starting or finishing, a block
// verified) sets a deadline scrubBound past it under the knobs then in force;
// a retune moves the deadline no earlier, so a pause begun under the old
// knobs still counts.
func (s *Store) ScrubStalled() bool {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	return !s.scrubDue.IsZero() && time.Now().After(s.scrubDue)
}

// scrubBound is the longest a healthy scrubber goes without progress: three
// times one pass pause, one pace and one largest run's wait for the byte
// budget, plus that run's read at scrubReadFloor and scrubSlack. A run is
// one block, or runBlocks blocks verified at once while the pace is
// negative. The caller holds scrubMu.
func (s *Store) scrubBound() time.Duration {
	pace := time.Duration(s.scrubPace.Load())
	wait := float64(max(s.scrubRest, 0) + max(pace, 0))
	run := float64(s.scrubBlock)
	if pace < 0 {
		run *= runBlocks
	}
	if bw := s.scrubBW.Load(); bw > 0 {
		wait += run / float64(bw) * float64(time.Second)
	}
	return time.Duration(3*wait+run/scrubReadFloor*float64(time.Second)) + scrubSlack
}

// scrubPassStarted records a pass starting whose largest block is largest.
func (s *Store) scrubPassStarted(largest int64) {
	s.scrubMu.Lock()
	s.scrubBlock = largest
	s.scrubMu.Unlock()
	s.scrubProgressed()
}

// scrubProgressed records a sign of progress.
func (s *Store) scrubProgressed() {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	s.scrubDue = time.Now().Add(s.scrubBound())
}

// scrubRetuned re-derives a running scrubber's deadline after a knob moved.
func (s *Store) scrubRetuned() {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if due := time.Now().Add(s.scrubBound()); !s.scrubDue.IsZero() && due.After(s.scrubDue) {
		s.scrubDue = due
	}
}

// scrubLoop coordinates passes: each pass snapshots the replica list, deals
// it round-robin into Workers shards, runs the shards concurrently, and
// counts the pass only when every shard finished it.
func (s *Store) scrubLoop(cfg ScrubConfig, bucket *tokenBucket, stop chan struct{}) {
	defer s.scrubWG.Done()
	for {
		passStart := time.Now()
		reps := s.Replicas()
		shards := make([][]*Replica, cfg.Workers)
		var largest int64
		for i, r := range reps {
			shards[i%cfg.Workers] = append(shards[i%cfg.Workers], r)
			lo, hi := r.Spec().BlockRange(0)
			largest = max(largest, hi-lo)
		}
		s.scrubPassStarted(largest)
		var wg sync.WaitGroup
		for _, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			wg.Add(1)
			go func(shard []*Replica) {
				defer wg.Done()
				s.scrubShard(shard, cfg, bucket, stop)
			}(shard)
		}
		wg.Wait()
		select {
		case <-stop:
			return // workers bailed mid-pass; don't count it
		default:
		}
		s.scrubPasses.Add(1)
		s.scrubProgressed()
		if cfg.OnPass != nil {
			cfg.OnPass(time.Since(passStart))
		}
		if !sleepOrStop(cfg.passPause, stop) {
			return
		}
	}
}

// scrubShard verifies one worker's share of a pass, reusing one read buffer
// across the blocks of replicas it cannot read in place. A paced worker
// verifies one block at a time; an unpaced one takes runs of up to
// runBlocks blocks, which verifyBlocks may hash in lockstep. Either way each
// block is counted, reported and marked as a run of one would have it.
func (s *Store) scrubShard(shard []*Replica, cfg ScrubConfig, bucket *tokenBucket, stop chan struct{}) {
	var buf []byte
	var res [runBlocks]blockResult
	for _, r := range shard {
		spec := r.Spec()
		for i := 0; i < spec.Blocks(); {
			// Pace is re-read per run so SetScrubPace retunes a running
			// pass, not just the next one.
			pace := time.Duration(s.scrubPace.Load())
			if !sleepOrStop(pace, stop) {
				return
			}
			n := 1
			if pace < 0 {
				n = min(runBlocks, spec.Blocks()-i)
			}
			lo, _ := spec.BlockRange(i)
			_, hi := spec.BlockRange(i + n - 1)
			if !bucket.take(hi-lo, stop) {
				return
			}
			r.verifyBlocks(i, res[:n], &buf)
			for k, b := range res[:n] {
				blo, bhi := spec.BlockRange(i + k)
				s.blocksScanned.Add(1)
				s.bytesScrubbed.Add(uint64(bhi - blo))
				s.scrubProgressed()
				if b.err != nil {
					continue // unreadable now; retried next pass
				}
				if b.ok && !b.marked {
					s.blocksVerified.Add(1)
				}
				if b.marked && cfg.OnDamage != nil {
					cfg.OnDamage(spec.ID, i+k)
				}
			}
			i += n
		}
	}
}

// sleepOrStop waits d (no wait when d <= 0), reporting false once stop
// closes.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// tokenBucket is the scrubber's shared IO budget: rate bytes/second with a
// one-second burst, shared by every worker. Rate <= 0 (and a nil bucket)
// means unlimited: always admit. The rate is settable at runtime so a config
// reload retunes a long-running scrub without restarting it.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(bytesPerSec int64) *tokenBucket {
	return &tokenBucket{
		rate:   float64(bytesPerSec),
		burst:  float64(bytesPerSec),
		tokens: float64(bytesPerSec),
		last:   time.Now(),
	}
}

// setRate replaces the budget. Lowering the rate clamps accumulated credit
// so the first second after a reload doesn't burst at the old rate.
func (b *tokenBucket) setRate(bytesPerSec int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rate = float64(bytesPerSec)
	b.burst = float64(bytesPerSec)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = time.Now()
}

// take blocks until n bytes of budget are available (or stop closes,
// returning false). A single block larger than the burst is admitted once
// the bucket is full and charged as debt, so long-run throughput still
// converges to the configured rate.
func (b *tokenBucket) take(n int64, stop <-chan struct{}) bool {
	if b == nil {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	need := float64(n)
	for {
		b.mu.Lock()
		if b.rate <= 0 {
			b.mu.Unlock()
			select {
			case <-stop:
				return false
			default:
				return true
			}
		}
		now := time.Now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
		admit := need
		if admit > b.burst {
			admit = b.burst
		}
		if b.tokens >= admit {
			b.tokens -= need // may go negative: debt paces the next taker
			b.mu.Unlock()
			return true
		}
		deficit := admit - b.tokens
		b.mu.Unlock()
		d := time.Duration(deficit / b.rate * float64(time.Second))
		if d < time.Millisecond {
			d = time.Millisecond
		}
		t := time.NewTimer(d)
		select {
		case <-stop:
			t.Stop()
			return false
		case <-t.C:
		}
	}
}
