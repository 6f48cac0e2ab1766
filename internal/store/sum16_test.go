package store

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"lockss/internal/content"
)

// lanesOf lays sixteen distinct messages of n bytes out at stride bytes
// apart, stride >= n, the bytes between them filled too.
func lanesOf(seed byte, n, stride int) []byte {
	span := make([]byte, (runBlocks-1)*stride+n)
	x := uint32(seed)*0x9e3779b9 + 1
	for i := range span {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		span[i] = byte(x)
	}
	return span
}

// checkSum16 holds sum16 over span to crypto/sha256, lane by lane.
func checkSum16(t *testing.T, span []byte, stride, n int) {
	t.Helper()
	var got [runBlocks]content.Hash
	sum16(span, stride, n, &got)
	for k := range got {
		if want := content.Hash(sha256.Sum256(span[k*stride : k*stride+n])); got[k] != want {
			t.Fatalf("n=%d stride=%d: lane %d = %x, want %x", n, stride, k, got[k][:8], want[:8])
		}
	}
}

// TestSum16MatchesSHA256: every padding case (a tail of 0, 55, 56, 63 bytes
// and the rest) and block-sized messages, each lane a different message,
// at a stride equal to the length and at an unaligned one.
func TestSum16MatchesSHA256(t *testing.T) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 1000, 64 << 10, 64<<10 + 60} {
		for _, stride := range []int{n, n + 13} {
			checkSum16(t, lanesOf(byte(n), n, stride), stride, n)
		}
	}
}

// FuzzSum16 holds sum16 to crypto/sha256 over any length, stride and
// contents: the fuzzed bytes, repeated to fill the span.
func FuzzSum16(f *testing.F) {
	f.Add([]byte("abc"), uint16(3), uint16(0))
	f.Add([]byte{0x80}, uint16(56), uint16(7))
	f.Add([]byte{1, 2, 3, 4, 5}, uint16(1000), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, n, gap uint16) {
		stride := int(n) + int(gap)
		span := make([]byte, (runBlocks-1)*stride+int(n))
		for i := range span {
			if len(data) > 0 {
				span[i] = data[i%len(data)] + byte(i/len(data))
			}
		}
		checkSum16(t, span, stride, int(n))
	})
}

// BenchmarkSum16 hashes sixteen 64 KiB blocks, the store's archive block
// size, through sum16 and one at a time through crypto/sha256.
func BenchmarkSum16(b *testing.B) {
	const n = 64 << 10
	span := lanesOf(1, n, n)
	var out [runBlocks]content.Hash
	b.Run("lanes", func(b *testing.B) {
		b.SetBytes(int64(len(span)))
		for b.Loop() {
			sum16(span, n, n, &out)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(span)))
		for b.Loop() {
			for k := range out {
				out[k] = sha256.Sum256(span[k*n : (k+1)*n])
			}
		}
	})
}

// TestRunsMatchBlockByBlock: verifying in runs — an unpaced scrub pass and
// VerifyAll — does to every block, in order, exactly what a pass of one
// block at a time does to a copy of the same store read by copying: the
// same marks, counters, OnDamage calls and VerifyAll reports, read errors
// word for word. One AU has 40 blocks and a short last one (runs of 16, 16
// and 8); the other has 32 and a short last one, so its second run is
// sixteen blocks but not sixteen full ones. The stores are clean, rotted in
// lanes 0, 7 and 15 of a run (beside a marked block and a healed one whose
// mark is stale), or cut inside a run after opening: by whole pages, which
// fault, or inside the run's last page, which reads as zeros.
func TestRunsMatchBlockByBlock(t *testing.T) {
	page := int64(os.Getpagesize())
	bs := 2 * page
	specs := []content.AUSpec{
		{ID: 1, Name: "forty", Size: 39*bs + 700, BlockSize: bs},
		{ID: 2, Name: "thirty-two", Size: 31*bs + 300, BlockSize: bs},
	}
	truncate := func(cut int64) func(*testing.T, *Store) {
		return func(t *testing.T, s *Store) {
			if err := os.Truncate(filepath.Join(s.auDir(1), blocksName), cut); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		rot  func(*testing.T, *Store) // before the copy
		cut  func(*testing.T, *Store) // after opening
	}{
		{name: "clean"},
		{name: "rotted", rot: func(t *testing.T, s *Store) {
			for _, i := range []int{16, 23, 31} {
				if err := s.InjectDamage(1, i); err != nil {
					t.Fatal(err)
				}
			}
			s.Replica(1).Damage(2)
			// Block 5 marked but healed: its bytes are right again.
			s.Replica(1).Damage(5)
			lo, hi := specs[0].BlockRange(5)
			f, err := os.OpenFile(filepath.Join(s.auDir(1), blocksName), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(content.PublisherBytes(specs[0])[lo:hi], lo); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "cut-pages", cut: truncate(21*bs + page)},
		{name: "cut-partial-page", cut: truncate(31*bs + page + 123)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				if _, err := ingest(s, spec, uint64(spec.ID), content.PublisherBytes(spec)); err != nil {
					t.Fatal(err)
				}
			}
			if c.rot != nil {
				c.rot(t, s)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			cp := t.TempDir()
			copyDir(t, dir, cp)
			got, want := scrubOnce(t, dir, true, c.cut), scrubOnce(t, cp, false, c.cut)
			if c.name == "clean" && hasSum16 && !got.kernel {
				t.Error("a clean full run was not hashed in lockstep")
			}
			if (c.name == "clean") != (len(want.before) == 0) {
				t.Errorf("the block-by-block pass found %d damaged blocks before scrubbing", len(want.before))
			}
			if !slices.Equal(got.before, want.before) {
				t.Errorf("VerifyAll before the pass:\nruns  %v\nblock %v", got.before, want.before)
			}
			if !slices.Equal(got.damage, want.damage) {
				t.Errorf("OnDamage:\nruns  %v\nblock %v", got.damage, want.damage)
			}
			if !slices.EqualFunc(got.marks, want.marks, slices.Equal) {
				t.Errorf("marks:\nruns  %v\nblock %v", got.marks, want.marks)
			}
			if got.stats != want.stats {
				t.Errorf("stats:\nruns  %+v\nblock %+v", got.stats, want.stats)
			}
			if !slices.Equal(got.after, want.after) {
				t.Errorf("VerifyAll after the pass:\nruns  %v\nblock %v", got.after, want.after)
			}
		})
	}
}

// runsPass is what one scrub pass over a store, and VerifyAll either side
// of it, showed.
type runsPass struct {
	kernel        bool     // replica 1's first run was hashed by sum16
	before, after []string // VerifyAll's reports, errors as text
	damage        [][2]int // OnDamage calls: AU, block
	marks         [][]content.Mark
	stats         Stats // less what the committer's timing decides
}

// scrubOnce opens the store at dir, applies cut, and runs one scrub pass of
// one worker over it: unpaced, so in runs, reading the mapping if runs is
// set, or paced and reading by copy otherwise.
func scrubOnce(t *testing.T, dir string, runs bool, cut func(*testing.T, *Store)) runsPass {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var p runsPass
	for _, r := range s.Replicas() {
		if !runs && r.m != nil {
			dropMapping(t, r)
		}
	}
	if cut != nil {
		cut(t, s)
	}
	r := s.Replica(1)
	r.mapMu.RLock()
	r.mu.Lock()
	p.kernel = r.mappedRunLocked(0, runBlocks) != nil
	r.mu.Unlock()
	r.mapMu.RUnlock()

	p.before = reportsOf(s.VerifyAll())
	pace := time.Duration(-1)
	if !runs {
		pace = time.Nanosecond
	}
	s.scrubPace.Store(int64(pace))
	cfg := ScrubConfig{OnDamage: func(au content.AUID, block int) {
		p.damage = append(p.damage, [2]int{int(au), block})
	}}
	s.scrubShard(s.Replicas(), cfg, nil, make(chan struct{}))
	for _, r := range s.Replicas() {
		r.mu.Lock()
		p.marks = append(p.marks, slices.Clone(r.man.marks))
		r.mu.Unlock()
	}
	p.stats = s.Stats()
	p.stats.ManifestWrites, p.stats.ManifestCommits, p.stats.Fsyncs = 0, 0, 0
	p.after = reportsOf(s.VerifyAll())
	return p
}

// reportsOf renders VerifyAll's reports with their errors as text.
func reportsOf(dam []Damage) []string {
	var out []string
	for _, d := range dam {
		out = append(out, fmt.Sprintf("%v/%d marked=%v unreadable=%v err=%v", d.AU, d.Block, d.Marked, d.Unreadable, d.Err))
	}
	return out
}

// copyDir copies the regular files of a store directory tree.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMappedRunAllocatesNothing: verifying and checking a run of sixteen
// mapped blocks hashes them in place, with no block buffer or result slice.
func TestMappedRunAllocatesNothing(t *testing.T) {
	spec := content.AUSpec{ID: 6, Name: "run", Size: runBlocks << 16, BlockSize: 1 << 16}
	_, r := newTestStore(t, spec, 1)
	if r.m == nil {
		t.Skip("no mapping on this platform")
	}
	var buf []byte
	var res [runBlocks]blockResult
	allocs := testing.AllocsPerRun(20, func() {
		r.verifyBlocks(0, res[:], &buf)
		r.checkBlocks(0, res[:], &buf)
	})
	if allocs != 0 {
		t.Errorf("a mapped run allocates %v times", allocs)
	}
	for k, b := range res {
		if !b.ok || b.marked || b.err != nil {
			t.Errorf("block %d of a clean run: %+v", k, b)
		}
	}
}
