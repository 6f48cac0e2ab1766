package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"lockss/internal/content"
)

// withProcs runs fn at GOMAXPROCS 1 and 3, so ingest and verification run
// with one worker and with several, even on a one-CPU machine.
func withProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestCreateFromDigestsMatchSerial: whatever the geometry and however the
// source hands out its bytes, every manifest digest is the plain SHA-256 of
// its block, and the block file holds exactly the source's bytes.
func TestCreateFromDigestsMatchSerial(t *testing.T) {
	specs := map[string]content.AUSpec{
		"block larger than a piece": {Size: 3*ingestChunk + 777, BlockSize: ingestChunk + 4097},
		"one block for the AU":      {Size: 2*ingestChunk + 5, BlockSize: 0},
		"partial last block":        {Size: 100<<10 + 123, BlockSize: 4 << 10},
		"AU smaller than a piece":   {Size: 100, BlockSize: 64 << 10},
		"size 0":                    {Size: 0, BlockSize: 1 << 10},
		"size 0, one block":         {Size: 0, BlockSize: 0},
	}
	sources := map[string]func(io.Reader) io.Reader{
		"whole reads": func(r io.Reader) io.Reader { return r },
		"one byte":    iotest.OneByteReader,
		"half reads":  iotest.HalfReader,
	}
	withProcs(t, func(t *testing.T) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		id := content.AUID(0)
		for name, spec := range specs {
			want := content.PublisherBytes(spec)
			for how, wrap := range sources {
				id++
				spec.ID, spec.Name = id, name
				r, err := s.CreateFrom(spec, 1, wrap(bytes.NewReader(want)))
				if err != nil {
					t.Fatalf("%s, %s: %v", name, how, err)
				}
				for i, got := range r.man.digests {
					lo, hi := spec.BlockRange(i)
					if got != content.Hash(sha256.Sum256(want[lo:hi])) {
						t.Errorf("%s, %s: block %d of %d has the wrong digest", name, how, i, len(r.man.digests))
					}
				}
				onDisk, err := os.ReadFile(filepath.Join(r.dir, blocksName))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, want) {
					t.Errorf("%s, %s: block file differs from the source", name, how)
				}
			}
		}
	})
}

// TestCreateFromFailureLeavesNothing: a source or a write failing anywhere
// mid-stream fails the ingest with its cause, writes no manifest, registers
// no replica, and leaves no goroutine running once CreateFrom returns.
func TestCreateFromFailureLeavesNothing(t *testing.T) {
	errSource := errors.New("source failed")
	spec := content.AUSpec{Name: "failing", Size: 3*ingestChunk + 777, BlockSize: ingestChunk / 3}
	withProcs(t, func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, id content.AUID, src io.Reader, wantErr error) {
			t.Helper()
			spec.ID = id
			before := runtime.NumGoroutine()
			_, err := s.CreateFrom(spec, 1, src)
			// A lane is counted until it has fully returned, a moment after
			// it signals done; one that never returns is what this catches.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%s: %d goroutines before the ingest, %d after it failed", what, before, after)
			}
			if err == nil {
				t.Fatalf("%s: ingest succeeded", what)
			}
			if wantErr != nil && !errors.Is(err, wantErr) {
				t.Errorf("%s: err = %v, want %v", what, err, wantErr)
			}
			if _, err := os.Stat(filepath.Join(s.auDir(id), manifestName)); !os.IsNotExist(err) {
				t.Errorf("%s: failed ingest left a manifest (err=%v)", what, err)
			}
			if s.Replica(id) != nil {
				t.Errorf("%s: failed ingest registered a replica", what)
			}
		}
		for i, at := range []int64{0, 1, spec.BlockSize, spec.BlockSize + 5, 2 * ingestChunk, spec.Size - 1} {
			src := io.MultiReader(io.LimitReader(content.PublisherReader(spec), at), iotest.ErrReader(errSource))
			check(fmt.Sprintf("source fails at byte %d", at), content.AUID(i+1), src, errSource)
		}
		// A block file that is really /dev/full fails every write.
		if _, err := os.Stat("/dev/full"); err == nil {
			const id = 100
			if err := os.MkdirAll(s.auDir(id), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink("/dev/full", filepath.Join(s.auDir(id), blocksName)); err != nil {
				t.Fatal(err)
			}
			check("write fails", id, content.PublisherReader(spec), nil)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("failed ingests broke Open: %v", err)
		}
		defer s2.Close()
		if aus := s2.AUs(); len(aus) != 0 {
			t.Fatalf("failed ingests loaded as AUs %v", aus)
		}
	})
}

// TestCreateFromRejectsNegativeBlockSize: a negative block size is geometry
// the manifest decoder refuses, so ingest must refuse it before writing
// anything — accepting it fsyncs a manifest that panics the replica's vote
// and fails the next Open of the whole store.
func TestCreateFromRejectsNegativeBlockSize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testSpec()
	if _, err := ingest(s, good, 1, content.PublisherBytes(good)); err != nil {
		t.Fatal(err)
	}
	bad := content.AUSpec{ID: good.ID + 1, Name: "negative", Size: 1000, BlockSize: -1}
	if _, err := s.CreateFrom(bad, 1, content.PublisherReader(bad)); err == nil {
		t.Error("negative block size accepted")
	}
	if _, err := os.Stat(filepath.Join(s.auDir(bad.ID), manifestName)); !os.IsNotExist(err) {
		t.Errorf("rejected ingest left a manifest (err=%v)", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("store no longer opens: %v", err)
	}
	defer s2.Close()
	if aus := s2.AUs(); len(aus) != 1 || aus[0] != good.ID {
		t.Fatalf("reopened store holds %v, want [%v]", aus, good.ID)
	}
	if dam := s2.VerifyAll(); dam != nil {
		t.Fatalf("reopened store does not verify: %v", dam)
	}
}

// TestVerifyAllMatchesSerial: over more AUs than workers, with silent rot,
// marked damage and truncation spread across several AUs, VerifyAll reports
// exactly what a serial check of each block file finds, in replica order and
// then block order.
func TestVerifyAllMatchesSerial(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Registration order differs from id order.
		for j, id := range []content.AUID{5, 2, 9, 1, 7, 3, 8, 4, 6} {
			spec := content.AUSpec{ID: id, Name: fmt.Sprintf("au%d", id), Size: int64(j+1)*3000 + int64(j)*17, BlockSize: 1 << 10}
			switch id {
			case 4:
				spec.BlockSize = 0
			case 6:
				spec.Size = 0
			}
			if _, err := ingest(s, spec, uint64(id), content.PublisherBytes(spec)); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range []struct {
			au    content.AUID
			block int
		}{{5, 1}, {9, 0}, {9, 7}, {1, 3}, {8, 12}, {8, 13}, {4, 0}} {
			if err := s.InjectDamage(d.au, d.block); err != nil {
				t.Fatal(err)
			}
		}
		s.Replica(7).Damage(2)
		s.Replica(3).Damage(0)
		for id, cut := range map[content.AUID]int64{2: 2500, 3: 1024, 8: 7000} {
			if err := os.Truncate(filepath.Join(s.auDir(id), blocksName), cut); err != nil {
				t.Fatal(err)
			}
		}

		var want []Damage
		for _, r := range s.Replicas() {
			data, err := os.ReadFile(filepath.Join(r.dir, blocksName))
			if err != nil {
				t.Fatal(err)
			}
			for i, digest := range r.man.digests {
				lo, hi := r.man.spec.BlockRange(i)
				marked := r.man.marks[i] != 0
				switch {
				case hi > int64(len(data)):
					want = append(want, Damage{AU: r.man.spec.ID, Block: i, Marked: marked, Unreadable: true})
				case content.Hash(sha256.Sum256(data[lo:hi])) != digest:
					want = append(want, Damage{AU: r.man.spec.ID, Block: i, Marked: marked})
				}
			}
		}
		got := s.VerifyAll()
		if len(got) != len(want) {
			t.Fatalf("VerifyAll found %d damaged blocks, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for k := range want {
			g := got[k]
			if (g.Err != nil) != g.Unreadable {
				t.Errorf("report %d: Unreadable %v with Err %v", k, g.Unreadable, g.Err)
			}
			g.Err = nil
			if g != want[k] {
				t.Errorf("report %d = %+v, want %+v", k, g, want[k])
			}
		}
	})
}

// fullWriter accepts limit bytes, then fails, keeping the part of the write
// that still fit.
type fullWriter struct {
	n, limit int64
	failed   bool
}

var errFull = errors.New("writer full")

func (w *fullWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.n; int64(len(p)) > room {
		w.n, w.failed = w.limit, true
		return int(room), errFull
	}
	w.n += int64(len(p))
	return len(p), nil
}

// TestWritebackHintRanges: an ingest through writeback hints contiguous
// ranges from byte 0, each at least ingestChunk long and none past the
// bytes written, so only a tail shorter than ingestChunk is left for the
// fsync; an AU smaller than a chunk is never hinted, and no hint follows a
// failed write.
func TestWritebackHintRanges(t *testing.T) {
	cases := []struct {
		name  string
		spec  content.AUSpec
		wrap  func(io.Reader) io.Reader
		limit int64 // the writer fails past this many bytes; 0 never
	}{
		{name: "smaller than a chunk", spec: content.AUSpec{Size: ingestChunk - 1, BlockSize: 64 << 10}},
		{name: "exact multiple", spec: content.AUSpec{Size: 3 * ingestChunk, BlockSize: 64 << 10}},
		{name: "odd tail", spec: content.AUSpec{Size: 2*ingestChunk + 12345, BlockSize: 1000}},
		{name: "one block for the AU", spec: content.AUSpec{Size: 5*ingestChunk/2 + 3, BlockSize: 0}},
		{name: "one byte reads", spec: content.AUSpec{Size: 2*ingestChunk + 7, BlockSize: 4 << 10}, wrap: iotest.OneByteReader},
		// 1000-byte pieces: the failing write is the one whose bytes would
		// carry the writer past hinted+ingestChunk.
		{name: "write fails", spec: content.AUSpec{Size: 3 * ingestChunk, BlockSize: 1000}, limit: 2*ingestChunk + 800},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.ID, c.spec.Name = 1, c.name
			var src io.Reader = content.PublisherReader(c.spec)
			if c.wrap != nil {
				src = c.wrap(src)
			}
			w := &fullWriter{limit: c.spec.Size}
			if c.limit > 0 {
				w.limit = c.limit
			}
			var end int64 // the hinted prefix is [0, end)
			wb := &writeback{w: w, hint: func(off, n int64) {
				switch {
				case w.failed:
					t.Errorf("hint [%d, %d) after a failed write", off, off+n)
				case off != end:
					t.Errorf("hint [%d, %d) does not start where the last ended, at %d", off, off+n, end)
				case n < ingestChunk:
					t.Errorf("hint [%d, %d) is shorter than a chunk", off, off+n)
				case off+n > w.n:
					t.Errorf("hint [%d, %d) reaches past the %d bytes written", off, off+n, w.n)
				}
				end = off + n
			}}
			digests := make([]content.Hash, c.spec.Blocks())
			err := streamBlocks(c.spec, src, wb, digests)
			if c.limit > 0 {
				if !errors.Is(err, errFull) {
					t.Fatalf("err = %v, want %v", err, errFull)
				}
				if end == 0 {
					t.Error("no hint before the failed write")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tail := c.spec.Size - end; tail >= ingestChunk {
				t.Errorf("hints cover [0, %d) of %d bytes: a tail of %d was never hinted", end, c.spec.Size, tail)
			}
		})
	}
}
