package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"lockss/internal/content"
)

// dropMapping unmaps r's block file, leaving it on the copying read path.
func dropMapping(t *testing.T, r *Replica) {
	t.Helper()
	r.mapMu.Lock()
	defer r.mapMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		t.Skip("no mapping on this platform")
	}
	if err := unmapFile(r.m); err != nil {
		t.Fatal(err)
	}
	r.m = nil
}

// blockOutcome is what one hashing read of a block reports.
type blockOutcome struct {
	ok, marked bool
	err        string
}

func outcome(b blockResult) blockOutcome {
	o := blockOutcome{ok: b.ok, marked: b.marked}
	if b.err != nil {
		o.err = b.err.Error()
	}
	return o
}

// readsOf is everything the hashing reads report for r, in the order a
// test may safely take them: the read-only ones, then verifyBlocks, which
// marks rot. Blocks are checked and verified in runs of one.
type readsOf struct {
	votes    []content.Hash
	payloads [][]byte
	checks   []blockOutcome
	verifies []blockOutcome
}

func collectReads(r *Replica) readsOf {
	var got readsOf
	got.votes = r.VoteHashes([]byte("nonce"))
	r.WalkBlocks(0, func(_ int, b []byte) bool {
		got.payloads = append(got.payloads, bytes.Clone(b))
		return true
	})
	var buf []byte
	var res [1]blockResult
	for i := range r.Spec().Blocks() {
		r.checkBlocks(i, res[:], &buf)
		got.checks = append(got.checks, outcome(res[0]))
	}
	for i := range r.Spec().Blocks() {
		r.verifyBlocks(i, res[:], &buf)
		got.verifies = append(got.verifies, outcome(res[0]))
	}
	return got
}

// TestMappedMatchesCopyPath: a replica that hashes its mapped block file in
// place reports exactly what one reading by copy does — the same votes,
// walk payloads and block outcomes, read errors word for word — on a clean
// replica, a rotted one, and one whose block file was cut mid-page after
// opening, so that blocks lie wholly past the end (whole pages gone, which
// fault) and one lies across it (a partial page, which reads as zeros).
func TestMappedMatchesCopyPath(t *testing.T) {
	page := int64(os.Getpagesize())
	spec := content.AUSpec{ID: 3, Name: "mapped", Size: 10*page + 100, BlockSize: 2 * page}
	cut := 3*page + 123 // block 1 straddles the cut, blocks 2 on lie past it
	states := map[string]func(t *testing.T, s *Store, r *Replica){
		"clean": func(*testing.T, *Store, *Replica) {},
		"rotted": func(t *testing.T, s *Store, r *Replica) {
			for _, i := range []int{1, 5} {
				if err := s.InjectDamage(spec.ID, i); err != nil {
					t.Fatal(err)
				}
			}
			r.Damage(3)
		},
		"truncated": func(t *testing.T, s *Store, r *Replica) {
			if err := os.Truncate(filepath.Join(r.dir, blocksName), cut); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range states {
		t.Run(name, func(t *testing.T) {
			var reads [2]readsOf
			for k, mapped := range []bool{true, false} {
				s, r := newTestStore(t, spec, 1)
				if r.m == nil {
					t.Skip("no mapping on this platform")
				}
				if !mapped {
					dropMapping(t, r)
				}
				damage(t, s, r)
				reads[k] = collectReads(r)
				if mapped && name == "truncated" {
					// The fault rule alone: past the size check, a block
					// whose pages the file no longer backs faults, and the
					// probe turns that into a failed read.
					lo, hi := spec.BlockRange(2)
					if probe(r.m, r.m[lo:hi]) {
						t.Error("probe read pages past the end of the file")
					}
				}
			}
			mapped, copied := reads[0], reads[1]
			if !slices.Equal(mapped.votes, copied.votes) {
				t.Error("vote hashes differ")
			}
			if !slices.EqualFunc(mapped.payloads, copied.payloads, bytes.Equal) {
				t.Error("walk payloads differ")
			}
			if !slices.Equal(mapped.checks, copied.checks) {
				t.Errorf("checkBlock:\nmapped %v\ncopied %v", mapped.checks, copied.checks)
			}
			if !slices.Equal(mapped.verifies, copied.verifies) {
				t.Errorf("verifyBlock:\nmapped %v\ncopied %v", mapped.verifies, copied.verifies)
			}
			if name == "truncated" && (copied.checks[1].err == "" || copied.checks[2].err == "") {
				t.Errorf("truncation left blocks 1 and 2 readable: %v", copied.checks)
			}
		})
	}
}

// TestCloseWaitsForMappedWalk: closing the store while a walk's callback
// holds a mapped payload waits for the callback, which can still read its
// payload; the walk then either finishes or passes every remaining block as
// unreadable.
func TestCloseWaitsForMappedWalk(t *testing.T) {
	spec := content.AUSpec{ID: 4, Name: "closing", Size: 8 << 10, BlockSize: 1 << 10}
	s, r := newTestStore(t, spec, 1)
	if r.m == nil {
		t.Skip("no mapping on this platform")
	}
	want := content.PublisherBytes(spec)
	entered, release, walked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var lens []int
	go func() {
		defer close(walked)
		r.WalkBlocks(0, func(i int, b []byte) bool {
			if i == 1 {
				close(entered)
				<-release
			}
			lo, hi := spec.BlockRange(i)
			if len(b) > 0 && !bytes.Equal(b, want[lo:hi]) {
				t.Errorf("block %d payload changed under the walk", i)
			}
			lens = append(lens, len(b))
			return true
		})
	}()
	<-entered
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Errorf("Close returned (%v) while a walk held a mapped payload", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-walked
	if err := <-closed; err != nil && !t.Failed() {
		t.Fatal(err)
	}
	if len(lens) != spec.Blocks() {
		t.Fatalf("walk saw %d blocks, want %d", len(lens), spec.Blocks())
	}
	if lens[0] == 0 || lens[1] == 0 {
		t.Errorf("blocks read before Close came back empty: %v", lens)
	}
	if k := slices.Index(lens, 0); k >= 0 && slices.ContainsFunc(lens[k:], func(n int) bool { return n != 0 }) {
		t.Errorf("walk read a block after one came back unreadable: %v", lens)
	}
}

// TestMappedWalkAllocatesNothing: a walk over a mapped replica hashes in
// place, with no block buffer.
func TestMappedWalkAllocatesNothing(t *testing.T) {
	spec := content.AUSpec{ID: 5, Name: "walk", Size: 256 << 10, BlockSize: 64 << 10}
	_, r := newTestStore(t, spec, 1)
	if r.m == nil {
		t.Skip("no mapping on this platform")
	}
	var n int
	fn := func(_ int, b []byte) bool { n += len(b); return true }
	if allocs := testing.AllocsPerRun(20, func() { r.WalkBlocks(0, fn) }); allocs != 0 {
		t.Errorf("mapped WalkBlocks allocates %v times a walk", allocs)
	}
	if n == 0 {
		t.Error("walks saw no bytes")
	}
}

// TestRepairPayloadIsACopy: the repair data RepairBlock returns belongs to
// the caller — it does not change when the block does, so it cannot be a
// view of the mapped file that the wire encoder would read torn.
func TestRepairPayloadIsACopy(t *testing.T) {
	spec := testSpec()
	s, r := newTestStore(t, spec, 1)
	b, err := r.RepairBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	keep := bytes.Clone(b)
	if err := s.InjectDamage(spec.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyRepair(2, content.CorruptBytes(99, 2, len(b))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, keep) {
		t.Error("repair payload changed with the block it was read from")
	}
}

// TestDirSyncUnsupported: only "this filesystem cannot fsync a directory"
// is swallowed; an IO error, however wrapped, is not.
func TestDirSyncUnsupported(t *testing.T) {
	wrap := func(errno syscall.Errno) error {
		return fmt.Errorf("store: %w", &os.PathError{Op: "sync", Path: "au-00000001", Err: errno})
	}
	for _, c := range []struct {
		err  error
		want bool
	}{
		{wrap(syscall.EIO), false},
		{wrap(syscall.ENOSPC), false},
		{errors.New("sync failed"), false},
		{wrap(syscall.EINVAL), true},
		{wrap(syscall.ENOTSUP), true},
	} {
		if got := dirSyncUnsupported(c.err); got != c.want {
			t.Errorf("dirSyncUnsupported(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
