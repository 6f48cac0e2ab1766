package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"lockss/internal/content"
)

// TestCreateFromStreaming: streaming ingest must land byte-identical state to
// the buffered path — same digests, same blocks, same verification — and
// round-trip through reopen.
func TestCreateFromStreaming(t *testing.T) {
	dir := t.TempDir()
	spec := content.AUSpec{ID: 3, Name: "streamed", Size: 100<<10 + 123, BlockSize: 4 << 10}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.CreateFrom(spec, 9, content.PublisherReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	want := content.PublisherBytes(spec)
	got, err := r.RepairBlock(spec.Blocks() - 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := spec.BlockRange(spec.Blocks() - 1)
	if !bytes.Equal(got, want[lo:hi]) {
		t.Fatal("streamed final block differs from publisher bytes")
	}
	if st := s.Stats(); st.BytesIngested != uint64(spec.Size) {
		t.Errorf("BytesIngested = %d, want %d", st.BytesIngested, spec.Size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if dam := s2.VerifyAll(); dam != nil {
		t.Fatalf("streamed AU does not verify after reopen: %v", dam)
	}
	// Ingests of the same bytes from a stream and from a buffer must agree
	// digest for digest: votes from either are interchangeable.
	other, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	ro, err := ingest(other, spec, 9, want)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("n")
	a, b := s2.Replica(spec.ID).VoteHashes(nonce), ro.VoteHashes(nonce)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vote hash %d differs between streamed and buffered ingest", i)
		}
	}
}

// TestCreateFromNeverBuffersAU: streaming ingest holds one bounded chunk, not
// the AU. A sampler watches HeapAlloc while a 64 MiB AU streams in; the heap
// may grow by the ingest buffer and the manifest, never by anything near the
// AU's size.
func TestCreateFromNeverBuffersAU(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests and fsyncs 64 MiB")
	}
	const bound = 16 << 20
	spec := content.AUSpec{ID: 1, Name: "archive", Size: 64 << 20, BlockSize: 64 << 10}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	stop, done := make(chan struct{}), make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	_, err = s.CreateFrom(spec, 1, content.PublisherReader(spec))
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if peak > base && peak-base >= bound {
		t.Errorf("ingesting %d bytes grew the heap by %d bytes, bound is %d", spec.Size, peak-base, bound)
	}
}

// TestCreateFromShortContent: a source that dries up mid-stream (the ingest
// analogue of a crash) must leave no manifest behind — the directory is
// invisible to Open and a re-ingest succeeds over it.
func TestCreateFromShortContent(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	short := io.LimitReader(content.PublisherReader(spec), spec.Size/2)
	if _, err := s.CreateFrom(spec, 1, short); err == nil {
		t.Fatal("short content accepted")
	}
	if _, err := os.Stat(filepath.Join(s.auDir(spec.ID), manifestName)); !os.IsNotExist(err) {
		t.Fatalf("failed ingest left a manifest (err=%v)", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("aborted ingest broke Open: %v", err)
	}
	if s2.Replica(spec.ID) != nil {
		t.Fatal("half-ingested AU was loaded")
	}
	if _, err := s2.CreateFrom(spec, 1, content.PublisherReader(spec)); err != nil {
		t.Fatalf("re-ingest over aborted ingest: %v", err)
	}
	if dam := s2.VerifyAll(); dam != nil {
		t.Fatalf("re-ingested AU does not verify: %v", dam)
	}
	s2.Close()
}

// TestCreateFromSizeMismatch: a source that ends before spec.Size bytes is
// rejected, and leaves no AU behind.
func TestCreateFromSizeMismatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec()
	if _, err := ingest(s, spec, 1, make([]byte, spec.Size-1)); err == nil {
		t.Error("short source accepted")
	}
	if s.Replica(spec.ID) != nil {
		t.Error("rejected ingest left a replica behind")
	}
}

// TestNumericAUOrder: au-%08d widens past id 10^8, where lexicographic and
// numeric directory order diverge. Reopen must load (and order) AUs by parsed
// id, not by name.
func TestNumericAUOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id content.AUID) content.AUSpec {
		return content.AUSpec{ID: id, Name: fmt.Sprintf("au%d", id), Size: 2048, BlockSize: 1024}
	}
	// Created wide-id first: "au-100000000" sorts lexicographically *before*
	// "au-99999999" even though its id is larger.
	for _, id := range []content.AUID{100000000, 99999999} {
		spec := mk(id)
		if _, err := ingest(s, spec, uint64(id), content.PublisherBytes(spec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	aus := s2.AUs()
	if len(aus) != 2 || aus[0] != 99999999 || aus[1] != 100000000 {
		t.Fatalf("AUs() after reopen = %v, want numeric order [99999999 100000000]", aus)
	}
	if dam := s2.VerifyAll(); dam != nil {
		t.Fatalf("wide-id store does not verify: %v", dam)
	}
}

// TestMalformedAUDirRejected: an au-* directory whose suffix is not a decimal
// id is foreign data or root corruption; Open must say so, not guess.
func TestMalformedAUDirRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "au-banana"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("malformed AU directory name accepted")
	}
	// Non-au- directories remain none of the store's business.
	dir2 := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir2, "lost+found"), 0o755); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir2); err != nil {
		t.Fatalf("unrelated directory broke Open: %v", err)
	} else {
		s.Close()
	}
}

// TestDuplicateNumericIDRejected: "au-7" and "au-00000007" are the same AU id
// spelled two ways; loading both would double-register it.
func TestDuplicateNumericIDRejected(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(s, spec, 1, content.PublisherBytes(spec)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("au-%d", spec.ID)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("duplicate numeric AU id accepted")
	}
}

// TestVerifyAllAggregatesReadErrors: an unreadable block must enter the
// report as Damage{Unreadable} and the sweep must carry on to find rot in
// other AUs — no early return, no ambiguity.
func TestVerifyAllAggregatesReadErrors(t *testing.T) {
	dir := t.TempDir()
	specA := content.AUSpec{ID: 1, Name: "truncated", Size: 4096, BlockSize: 1024}
	specB := content.AUSpec{ID: 2, Name: "rotted", Size: 4096, BlockSize: 1024}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, spec := range []content.AUSpec{specA, specB} {
		if _, err := ingest(s, spec, uint64(spec.ID), content.PublisherBytes(spec)); err != nil {
			t.Fatal(err)
		}
	}
	// AU 1 loses its last block to truncation (reads past EOF fail), AU 2
	// rots silently.
	if err := os.Truncate(filepath.Join(s.auDir(specA.ID), blocksName), specA.Size-int64(specA.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectDamage(specB.ID, 2); err != nil {
		t.Fatal(err)
	}

	dam := s.VerifyAll()
	if len(dam) != 2 {
		t.Fatalf("VerifyAll = %v, want one unreadable + one rotted", dam)
	}
	if dam[0].AU != specA.ID || dam[0].Block != 3 || !dam[0].Unreadable || dam[0].Err == nil {
		t.Errorf("unreadable block reported as %+v", dam[0])
	}
	if dam[1].AU != specB.ID || dam[1].Block != 2 || dam[1].Unreadable || dam[1].Marked {
		t.Errorf("silent rot reported as %+v", dam[1])
	}
}

// TestGroupCommitCrashWindow: a kill -9 inside the commit window loses only
// the async mark, never manifest integrity. With the committer parked (huge
// interval), the on-disk manifest stays at its old generation — loadable,
// mark absent, block bytes already corrupt; after Flush it is loadable at the
// new generation with the mark present.
func TestGroupCommitCrashWindow(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := open(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ingest(s, spec, 1, content.PublisherBytes(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Damage(2) {
		t.Fatal("damage failed")
	}

	// "Crash" now: read the directory as a second store without closing the
	// first — exactly the bytes kill -9 would leave.
	crashed, err := Open(dir)
	if err != nil {
		t.Fatalf("manifest not loadable inside the commit window: %v", err)
	}
	if crashed.Replica(spec.ID).Damaged() {
		t.Fatal("async mark reached disk with the committer parked")
	}
	// The bytes are corrupt regardless; a scrub pass re-derives the mark.
	dam := crashed.VerifyAll()
	if len(dam) != 1 || dam[0].Block != 2 || dam[0].Marked {
		t.Fatalf("verify inside commit window: %v", dam)
	}
	crashed.Close()

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := Open(dir)
	if err != nil {
		t.Fatalf("manifest not loadable after Flush: %v", err)
	}
	if !after.Replica(spec.ID).Damaged() {
		t.Fatal("mark not durable after Flush")
	}
	after.Close()
}

// TestRepairDurableBeforeReturn: ApplyRepair is the crash-safety-critical
// path — when it returns, the cleared mark must already be on disk even
// though the committer batches everything else.
func TestRepairDurableBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := open(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ingest(s, spec, 1, content.PublisherBytes(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Damage(1) {
		t.Fatal("damage failed")
	}
	lo, hi := spec.BlockRange(1)
	if err := r.ApplyRepair(1, content.PublisherBytes(spec)[lo:hi]); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Replica(spec.ID).Damaged() {
		t.Fatal("repair returned before its manifest was durable")
	}
	if dam := re.VerifyAll(); dam != nil {
		t.Fatalf("repaired store does not verify on disk: %v", dam)
	}
	re.Close()
}

// TestGroupCommitCoalesces: mutations landing inside one commit window must
// share a single manifest replacement — the fsync amortization the committer
// exists for.
func TestGroupCommitCoalesces(t *testing.T) {
	spec := content.AUSpec{ID: 5, Name: "busy", Size: 32 << 10, BlockSize: 1 << 10}
	s, err := open(t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ingest(s, spec, 1, content.PublisherBytes(spec))
	if err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	for i := 0; i < 8; i++ {
		if !r.Damage(i) {
			t.Fatalf("damage %d failed", i)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	muts := st.ManifestMutations - base.ManifestMutations
	writes := st.ManifestWrites - base.ManifestWrites
	commits := st.ManifestCommits - base.ManifestCommits
	if muts != 8 {
		t.Fatalf("ManifestMutations delta = %d, want 8", muts)
	}
	if writes != 1 || commits != 1 {
		t.Errorf("8 mutations took %d writes in %d commits, want 1 in 1", writes, commits)
	}
}

// TestFsyncBudget pins what each store operation costs in fsyncs, as
// Stats.Fsyncs counts them: an ingest 4 (block file, manifest temp file,
// manifest directory, store root), whatever writeback hints it gave on the
// way; an injected bit flip its block file's 1; a lone repair its block
// file's 1 plus a commit train's 2. Closing a clean store costs none: every
// block write was synced before the call that made it returned.
func TestFsyncBudget(t *testing.T) {
	s, err := open(t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, want uint64, op func() error) {
		t.Helper()
		before := s.Stats().Fsyncs
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := s.Stats().Fsyncs - before; got != want {
			t.Errorf("%s cost %d fsyncs, want %d", what, got, want)
		}
	}
	// Three chunks and a tail: the ingest hints writeback three times.
	spec := content.AUSpec{ID: 1, Name: "budget", Size: 3*ingestChunk + 4103, BlockSize: 64 << 10}
	var r *Replica
	step("ingest", 4, func() (err error) {
		r, err = s.CreateFrom(spec, 1, content.PublisherReader(spec))
		return err
	})
	step("inject damage", 1, func() error { return s.InjectDamage(spec.ID, 5) })
	lo, hi := spec.BlockRange(5)
	step("repair", 3, func() error { return r.ApplyRepair(5, content.PublisherBytes(spec)[lo:hi]) })
	step("close", 0, s.Close)
}

// TestConcurrentIngestScrubLookup drives ingest, scrubbing, lookups, stats and
// whole-store verification concurrently — the archive-scale contention
// pattern; run under -race.
func TestConcurrentIngestScrubLookup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mk := func(id content.AUID) content.AUSpec {
		return content.AUSpec{ID: id, Name: fmt.Sprintf("au%d", id), Size: 8 << 10, BlockSize: 1 << 10}
	}
	for id := content.AUID(1); id <= 4; id++ {
		if _, err := s.CreateFrom(mk(id), uint64(id), content.PublisherReader(mk(id))); err != nil {
			t.Fatal(err)
		}
	}
	s.StartScrub(ScrubConfig{Pace: -1, passPause: -1, Workers: 2, Bandwidth: 64 << 20})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for id := content.AUID(10); id < 20; id++ {
			if _, err := s.CreateFrom(mk(id), uint64(id), content.PublisherReader(mk(id))); err != nil {
				t.Errorf("concurrent ingest AU %d: %v", id, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			s.Replica(2)
			s.Replicas()
			s.Stats()
			if dam := s.VerifyAll(); dam != nil {
				t.Errorf("VerifyAll during concurrent load: %v", dam)
				return
			}
		}
	}()
	wg.Wait()
	s.StopScrub()
	if dam := s.VerifyAll(); dam != nil {
		t.Fatalf("store does not verify after concurrent load: %v", dam)
	}
	if got := len(s.AUs()); got != 14 {
		t.Fatalf("AUs after concurrent ingest = %d, want 14", got)
	}
}

// TestDuplicateIngestInFlight: a second CreateFrom for an id mid-stream must
// be refused by the reservation, not interleave writes.
func TestDuplicateIngestInFlight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, err := s.CreateFrom(spec, 1, &gatedReader{r: content.PublisherReader(spec), started: started, release: release})
		if err != nil {
			t.Errorf("gated ingest: %v", err)
		}
	}()
	<-started
	if _, err := s.CreateFrom(spec, 2, content.PublisherReader(spec)); err == nil {
		t.Error("concurrent ingest of one AU id accepted")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for s.Replica(spec.ID) == nil {
		if time.Now().After(deadline) {
			t.Fatal("gated ingest never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedReader signals its first Read and then blocks until released.
type gatedReader struct {
	r        io.Reader
	started  chan struct{}
	release  chan struct{}
	signaled bool
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if !g.signaled {
		g.signaled = true
		close(g.started)
		<-g.release
	}
	return g.r.Read(p)
}

// TestScrubShardingFindsAllDamage: a multi-worker scrub pass must cover every
// AU exactly as one worker would — damage in shards beyond the first is found.
func TestScrubShardingFindsAllDamage(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const nAU = 8
	for id := content.AUID(1); id <= nAU; id++ {
		spec := content.AUSpec{ID: id, Name: fmt.Sprintf("au%d", id), Size: 4096, BlockSize: 1024}
		if _, err := ingest(s, spec, uint64(id), content.PublisherBytes(spec)); err != nil {
			t.Fatal(err)
		}
		if err := s.InjectDamage(id, int(id)%4); err != nil {
			t.Fatal(err)
		}
	}
	s.StartScrub(ScrubConfig{Pace: -1, passPause: time.Hour, Workers: 3})
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().ScrubPasses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("sharded scrub never finished a pass")
		}
		time.Sleep(time.Millisecond)
	}
	s.StopScrub()
	st := s.Stats()
	if st.BlocksDamaged != nAU {
		t.Errorf("BlocksDamaged = %d, want %d", st.BlocksDamaged, nAU)
	}
	if st.BlocksScanned < nAU*4 {
		t.Errorf("BlocksScanned = %d, want >= %d", st.BlocksScanned, nAU*4)
	}
	if st.BytesScrubbed < nAU*4096 {
		t.Errorf("BytesScrubbed = %d, want >= %d", st.BytesScrubbed, nAU*4096)
	}
	for id := content.AUID(1); id <= nAU; id++ {
		if !s.Replica(id).Damaged() {
			t.Errorf("AU %d damage not marked by sharded scrub", id)
		}
	}
}

// TestTokenBucket pins the pacing contract: a nil bucket always admits, an
// oversized request is admitted once as debt, an exhausted bucket makes the
// next taker wait for refill, and stop aborts a blocked take.
func TestTokenBucket(t *testing.T) {
	stop := make(chan struct{})
	var nilBucket *tokenBucket
	if !nilBucket.take(1<<40, stop) {
		t.Fatal("nil bucket refused")
	}

	b := newTokenBucket(1 << 20) // 1 MiB/s, full burst
	if !b.take(10<<20, stop) {   // 10 MiB > burst: admitted once, as debt
		t.Fatal("oversized take refused on a full bucket")
	}
	if b.tokens >= 0 {
		t.Fatalf("oversized take left tokens = %v, want debt", b.tokens)
	}

	// A blocked take must honor stop promptly rather than sleeping out the
	// (multi-second) debt.
	done := make(chan bool, 1)
	go func() { done <- b.take(1, stop) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("stopped take reported admitted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stopped take did not return")
	}

	// Refill: an exhausted small bucket admits again after ~need/rate.
	b2 := newTokenBucket(100 << 20) // 100 MiB/s
	if !b2.take(100<<20, make(chan struct{})) {
		t.Fatal("full-burst take refused")
	}
	start := time.Now()
	if !b2.take(10<<20, make(chan struct{})) { // ~100ms refill
		t.Fatal("refill take refused")
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Errorf("refill take returned in %v, want >= 50ms of pacing", el)
	}
}
