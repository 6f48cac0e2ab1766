package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lockss/internal/content"
)

// The store replica must be a drop-in content.Replica for the node.
var _ content.Replica = (*Replica)(nil)

func testSpec() content.AUSpec {
	return content.AUSpec{ID: 7, Name: "test", Size: 4096, BlockSize: 1024}
}

// ingest streams an in-memory buffer into s as spec's content.
func ingest(s *Store, spec content.AUSpec, salt uint64, data []byte) (*Replica, error) {
	return s.CreateFrom(spec, salt, bytes.NewReader(data))
}

// newTestStore creates a store with one AU of publisher content.
func newTestStore(t *testing.T, spec content.AUSpec, salt uint64) (*Store, *Replica) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	r, err := ingest(s, spec, salt, content.PublisherBytes(spec))
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(s, spec, 3, content.PublisherBytes(spec)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Replica(spec.ID)
	if r == nil {
		t.Fatal("AU not loaded after reopen")
	}
	if r.Spec() != spec {
		t.Fatalf("spec round trip: %v != %v", r.Spec(), spec)
	}
	if r.Damaged() {
		t.Error("fresh store damaged")
	}
	if dam := s2.VerifyAll(); dam != nil {
		t.Fatalf("fresh store does not verify: %v", dam)
	}
}

// TestVoteHashesMatchRealReplica pins the on-disk replica's votes to the
// in-memory implementation: same publisher content, same nonce, identical
// hashes — the property that lets store-backed and synthetic nodes audit
// each other.
func TestVoteHashesMatchRealReplica(t *testing.T) {
	spec := content.AUSpec{ID: 9, Name: "partial", Size: 2500, BlockSize: 1024}
	_, r := newTestStore(t, spec, 1)
	real := content.NewRealReplica(spec, 2)
	nonce := []byte("poll-nonce")
	a, b := r.VoteHashes(nonce), real.VoteHashes(nonce)
	if len(a) != len(b) {
		t.Fatalf("hash counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vote hash %d differs between store and real replica", i)
		}
	}
}

func TestDamageRepairCycle(t *testing.T) {
	spec := testSpec()
	s, r := newTestStore(t, spec, 1)
	_, supplier := newTestStore(t, spec, 2)

	g0 := r.Generation()
	if r.Damage(99) {
		t.Error("out-of-range damage accepted")
	}
	if !r.Damage(2) {
		t.Fatal("damage failed")
	}
	if !r.Damaged() || r.Generation() == g0 {
		t.Fatal("damage not recorded")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Block != 2 {
		t.Fatalf("snapshot %v", snap)
	}
	dam := s.VerifyAll()
	if len(dam) != 1 || dam[0].Block != 2 || !dam[0].Marked {
		t.Fatalf("verify after damage: %v", dam)
	}

	data, err := supplier.RepairBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyRepair(2, data); err != nil {
		t.Fatal(err)
	}
	if r.Damaged() {
		t.Error("repair did not clear the mark")
	}
	if dam := s.VerifyAll(); dam != nil {
		t.Fatalf("store does not verify after repair: %v", dam)
	}
	if s.Stats().BlocksRepaired != 1 {
		t.Errorf("BlocksRepaired = %d, want 1", s.Stats().BlocksRepaired)
	}
}

func TestApplyRepairErrors(t *testing.T) {
	spec := testSpec()
	_, r := newTestStore(t, spec, 1)
	if err := r.ApplyRepair(-1, nil); err == nil {
		t.Error("negative block accepted")
	}
	if err := r.ApplyRepair(4, nil); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := r.ApplyRepair(1, []byte("short")); err == nil {
		t.Error("wrong-size repair accepted")
	}
	if _, err := r.RepairBlock(-1); err == nil {
		t.Error("negative RepairBlock accepted")
	}
	if _, err := r.RepairBlock(4); err == nil {
		t.Error("out-of-range RepairBlock accepted")
	}
}

// TestCorruptRepairStaysMarked: repair data endorsed by a poll but different
// from the ingest digest is written (the landslide outranks local history)
// yet the block stays marked, so audits keep pursuing it.
func TestCorruptRepairStaysMarked(t *testing.T) {
	spec := testSpec()
	_, r := newTestStore(t, spec, 1)
	r.Damage(1)
	bad := bytes.Repeat([]byte{0xAB}, int(spec.BlockSize))
	if err := r.ApplyRepair(1, bad); err != nil {
		t.Fatal(err)
	}
	if !r.Damaged() {
		t.Error("corrupt repair cleared the mark")
	}
	got, err := r.RepairBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bad) {
		t.Error("corrupt repair bytes were not written")
	}
}

// TestCrashDuringRepairLeavesMarked simulates the crash window the atomic
// write path defends: the repair wrote (and fsynced) the healed block bytes,
// then the process died before the manifest replacement. The store must
// reopen cleanly with the block still marked damaged, and the next scrub
// pass — observing bytes that match the manifest digest — completes the
// repair by clearing the mark.
func TestCrashDuringRepairLeavesMarked(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pub := content.PublisherBytes(spec)
	r, err := ingest(s, spec, 1, pub)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Damage(2) {
		t.Fatal("damage failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash window: block 2's correct bytes land in blocks.dat, the
	// manifest is never updated (kill -9 between the two).
	lo, hi := spec.BlockRange(2)
	f, err := os.OpenFile(filepath.Join(s.auDir(spec.ID), blocksName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(pub[lo:hi], lo); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("store not loadable after simulated crash: %v", err)
	}
	defer s2.Close()
	r2 := s2.Replica(spec.ID)
	if !r2.Damaged() {
		t.Fatal("damage mark lost across the crash")
	}
	// A scrub pass completes the interrupted repair.
	var buf []byte
	var res [1]blockResult
	r2.verifyBlocks(2, res[:], &buf)
	ok, marked, err := res[0].ok, res[0].marked, res[0].err
	if err != nil {
		t.Fatal(err)
	}
	if !ok || marked {
		t.Fatalf("scrub did not complete the repair: ok=%v marked=%v", ok, marked)
	}
	if r2.Damaged() {
		t.Error("mark not cleared")
	}
	if s2.Stats().BlocksRepaired != 1 {
		t.Errorf("BlocksRepaired = %d, want 1", s2.Stats().BlocksRepaired)
	}
}

func TestScrubDetectsInjectedDamage(t *testing.T) {
	spec := testSpec()
	s, r := newTestStore(t, spec, 1)
	if err := s.InjectDamage(spec.ID, 3); err != nil {
		t.Fatal(err)
	}
	if r.Damaged() {
		t.Fatal("injection must be silent")
	}
	var hits atomic.Uint64
	s.StartScrub(ScrubConfig{
		Pace: time.Millisecond,
		OnDamage: func(au content.AUID, block int) {
			if au == spec.ID && block == 3 {
				hits.Add(1)
			}
		},
	})
	deadline := time.Now().Add(10 * time.Second)
	for !r.Damaged() {
		if time.Now().After(deadline) {
			t.Fatal("scrub did not detect injected damage")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.StopScrub()
	if hits.Load() == 0 {
		t.Error("OnDamage never fired")
	}
	st := s.Stats()
	if st.BlocksDamaged != 1 || st.BlocksScanned == 0 || st.DamageInjected != 1 {
		t.Errorf("stats %+v", st)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Block != 3 || snap[0].Mark == 0 {
		t.Errorf("snapshot after scrub: %v", snap)
	}
}

func TestScrubPassCountsAndStops(t *testing.T) {
	spec := testSpec()
	s, _ := newTestStore(t, spec, 1)
	s.StartScrub(ScrubConfig{Pace: time.Millisecond, passPause: time.Millisecond})
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().ScrubPasses < 2 {
		if time.Now().After(deadline) {
			t.Fatal("scrubber did not complete two passes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.StopScrub()
	st := s.Stats()
	if st.BlocksVerified < uint64(spec.Blocks()) {
		t.Errorf("BlocksVerified = %d after %d passes", st.BlocksVerified, st.ScrubPasses)
	}
	// Stopped means stopped: counters freeze.
	before := s.Stats().BlocksScanned
	time.Sleep(20 * time.Millisecond)
	if s.Stats().BlocksScanned != before {
		t.Error("scrubber still running after StopScrub")
	}
}

// TestScrubStalledWhenWedged: a scrubber wedged in its OnDamage callback is
// reported stalled once the bound its knobs allow has passed since its last
// verified block, not before. A retune re-derives the deadline from the new
// knobs and never pulls it in; the next verified block sets it afresh.
func TestScrubStalledWhenWedged(t *testing.T) {
	spec := testSpec()
	s, _ := newTestStore(t, spec, 1)
	if err := s.InjectDamage(spec.ID, 3); err != nil {
		t.Fatal(err)
	}
	const pace = 20 * time.Millisecond
	wedged := make(chan time.Time, 1)
	release := make(chan struct{})
	var once sync.Once
	s.StartScrub(ScrubConfig{
		Pace: pace,
		OnDamage: func(content.AUID, int) {
			once.Do(func() {
				wedged <- time.Now()
				<-release
			})
		},
	})
	defer s.StopScrub()
	defer close(release)
	var at time.Time
	select {
	case at = <-wedged:
	case <-time.After(10 * time.Second):
		t.Fatal("scrubber never reached the damaged block")
	}
	due := func() time.Duration {
		s.scrubMu.Lock()
		defer s.scrubMu.Unlock()
		return time.Until(s.scrubDue)
	}
	s.scrubMu.Lock()
	bound := s.scrubBound()
	s.scrubMu.Unlock()
	if bound > 3*time.Second {
		t.Fatalf("bound %v for a 4-block store at a %v pace", bound, pace)
	}
	for !s.ScrubStalled() {
		if time.Since(at) > bound+time.Second {
			t.Fatalf("wedged scrubber not reported stalled %v after its last block (bound %v)", time.Since(at), bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Block 3 came three paces after the pass started: a deadline counted
	// from an earlier sign of progress would have expired that much sooner.
	if d := time.Since(at); d < bound-pace {
		t.Errorf("reported stalled %v after its last block, inside the bound %v", d, bound)
	}

	s.SetScrubPace(time.Hour)
	s.SetScrubPace(pace)
	if d := due(); d < 3*time.Hour || s.ScrubStalled() {
		t.Errorf("deadline %v away after slowing to a 1h pace and back, want at least three paces", d)
	}
	release <- struct{}{}
	for deadline := time.Now().Add(10 * time.Second); due() > bound; {
		if time.Now().After(deadline) {
			t.Fatalf("deadline still %v away after the scrubber moved again", due())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScrubRestIsNotAStall: the pause between passes counts toward the
// bound, so a scrubber resting for longer than its pace and slack is healthy.
func TestScrubRestIsNotAStall(t *testing.T) {
	spec := testSpec()
	s, _ := newTestStore(t, spec, 1)
	s.StartScrub(ScrubConfig{Pace: time.Millisecond, passPause: 2 * time.Second})
	defer s.StopScrub()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().ScrubPasses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scrubber made no pass")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if s.ScrubStalled() {
			t.Fatal("scrubber resting between passes reported stalled")
		}
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(s, spec, 1, content.PublisherBytes(spec)); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(s.auDir(spec.ID), manifestName)
	s.Close()

	good, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	// A single flipped bit anywhere must be caught.
	for _, off := range []int{0, 10, len(good) / 2, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		if err := os.WriteFile(manPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("bit flip at %d not detected", off)
		}
	}
	// Truncation must be caught.
	for _, n := range []int{0, 8, len(good) - 1} {
		if err := os.WriteFile(manPath, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
	// The pristine manifest still loads.
	if err := os.WriteFile(manPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

// TestLeftoverTmpAndPartialIngestIgnored: a stale manifest.tmp (crash during
// an atomic replace) and an AU directory without a manifest (crash during
// ingest) must not break Open.
func TestLeftoverTmpAndPartialIngestIgnored(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(s, spec, 1, content.PublisherBytes(spec)); err != nil {
		t.Fatal(err)
	}
	auDir := s.auDir(spec.ID)
	s.Close()

	if err := os.WriteFile(filepath.Join(auDir, manifestName+".tmp"), []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "au-00000099")
	if err := os.MkdirAll(partial, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(partial, blocksName), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("crash leftovers broke Open: %v", err)
	}
	defer s2.Close()
	if s2.Replica(spec.ID) == nil {
		t.Error("intact AU not loaded")
	}
	if s2.Replica(99) != nil {
		t.Error("manifest-less AU directory was loaded")
	}
}

func TestBlockFileSizeMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(s, spec, 1, content.PublisherBytes(spec)); err != nil {
		t.Fatal(err)
	}
	blocks := filepath.Join(s.auDir(spec.ID), blocksName)
	s.Close()
	if err := os.Truncate(blocks, spec.Size-100); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("truncated block file not detected at Open")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	spec := content.AUSpec{ID: 42, Name: "J. Irreproducible Results 2004", Size: 2500, BlockSize: 1024}
	m := &manifest{spec: spec, salt: 77, gen: 9, events: 3,
		digests: make([]content.Hash, spec.Blocks()),
		marks:   make([]content.Mark, spec.Blocks())}
	for i := range m.digests {
		m.digests[i][0] = byte(i + 1)
	}
	m.marks[1] = 12345
	got, err := decodeManifest(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.spec != m.spec || got.salt != m.salt || got.gen != m.gen || got.events != m.events {
		t.Errorf("header round trip: %+v vs %+v", got, m)
	}
	for i := range m.digests {
		if got.digests[i] != m.digests[i] || got.marks[i] != m.marks[i] {
			t.Errorf("block %d round trip mismatch", i)
		}
	}
}

// TestWalkBlocksCallsBackUnlocked: WalkBlocks holds the replica's lock only
// while it reads a block, never while the callback runs, so a callback may
// use the replica — as scrub and repair of the AU may meanwhile — without
// deadlock. The walk starts at from and stops when the callback says so.
func TestWalkBlocksCallsBackUnlocked(t *testing.T) {
	spec := content.AUSpec{ID: 9, Name: "partial", Size: 2500, BlockSize: 1024}
	_, r := newTestStore(t, spec, 1)
	var seen []int
	r.WalkBlocks(1, func(i int, b []byte) bool {
		if !r.mu.TryLock() {
			t.Errorf("block %d: callback runs under the replica lock", i)
			return false
		}
		r.mu.Unlock()
		r.Generation()
		seen = append(seen, i, len(b))
		return true
	})
	r.WalkBlocks(0, func(i int, _ []byte) bool {
		seen = append(seen, i)
		return false
	})
	if want := []int{1, 1024, 2, 452, 0}; !slices.Equal(seen, want) {
		t.Errorf("walks saw %v, want %v", seen, want)
	}
}
