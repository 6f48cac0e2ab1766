package store

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lockss/internal/content"
)

// ingestChunk bounds the AU content a streaming ingest holds in memory,
// regardless of AU or block size: CreateFrom circulates at most ingestDepth
// pieces of ingestChunk/ingestDepth bytes between its reader and its hash
// lanes. It is also how often the ingest starts writeback (see writeback).
const (
	ingestChunk = 1 << 20
	ingestDepth = 16
)

// Stats counts store activity. All counters are cumulative since Open.
type Stats struct {
	// BlocksScanned is how many blocks the scrubber has read and hashed.
	BlocksScanned uint64
	// BlocksVerified is the subset of scans that matched their manifest
	// digest.
	BlocksVerified uint64
	// BlocksDamaged is how many blocks the scrubber newly marked damaged.
	BlocksDamaged uint64
	// BlocksRepaired is how many marked blocks were healed back to their
	// manifest digest — by an applied repair, or by a scrub pass finding a
	// crash-interrupted repair that had written the bytes but not yet the
	// manifest.
	BlocksRepaired uint64
	// ScrubPasses counts completed full passes over every AU.
	ScrubPasses uint64
	// ManifestMutations counts manifest-state mutations (damage marks,
	// repairs, scrub mark changes, ingests) requested of the store.
	ManifestMutations uint64
	// ManifestWrites counts atomic manifest replacements that reached disk.
	// It trails ManifestMutations: mutations coalescing in one commit window
	// share a single replacement.
	ManifestWrites uint64
	// ManifestCommits counts group-commit trains (batches of manifest
	// replacements sharing one flush).
	ManifestCommits uint64
	// Fsyncs counts fsync syscalls the store issued — block files, manifest
	// temp files and directories. The cost group commit amortizes. An
	// ingest's writeback hints are not fsyncs and are not counted.
	Fsyncs uint64
	// BytesIngested counts content bytes written by Create/CreateFrom.
	BytesIngested uint64
	// BytesScrubbed counts content bytes read and hashed by the scrubber.
	BytesScrubbed uint64
	// DamageInjected counts InjectDamage bit flips.
	DamageInjected uint64
}

// Store is a durable collection of AU replicas rooted at one directory.
// Stores are safe for concurrent use: ingest streams its IO outside the
// store lock, and the node's actor loop and the scrub workers reach replicas
// through per-replica locks.
type Store struct {
	root string

	mu  sync.Mutex
	aus map[content.AUID]*Replica
	// creating reserves AU ids whose ingest is streaming outside the lock,
	// so concurrent CreateFrom calls for one id cannot both write the
	// directory.
	creating map[content.AUID]bool
	order    []content.AUID

	// committer batches manifest flushes into group-commit trains.
	committer *committer

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup
	// Runtime-tunable scrub knobs (see SetScrubPace / SetScrubBandwidth);
	// scrubBucket is guarded by mu, the knobs are atomics read per block.
	scrubPace   atomic.Int64
	scrubBW     atomic.Int64
	scrubBucket *tokenBucket
	// Scrub health (see ScrubStalled), guarded by scrubMu: scrubDue is when
	// a healthy scrubber next shows progress (zero while none runs), and
	// scrubRest and scrubBlock are the pass pause and the largest block of
	// the current pass that deadline allows for.
	scrubMu    sync.Mutex
	scrubDue   time.Time
	scrubRest  time.Duration
	scrubBlock int64

	closeOnce sync.Once
	closeErr  error

	blocksScanned     atomic.Uint64
	blocksVerified    atomic.Uint64
	blocksDamaged     atomic.Uint64
	blocksRepaired    atomic.Uint64
	scrubPasses       atomic.Uint64
	manifestMutations atomic.Uint64
	manifestWrites    atomic.Uint64
	manifestCommits   atomic.Uint64
	fsyncs            atomic.Uint64
	bytesIngested     atomic.Uint64
	bytesScrubbed     atomic.Uint64
	damageInjected    atomic.Uint64
}

// Open loads (or creates) a store rooted at dir. Every au-<id>
// subdirectory with a valid manifest is loaded in numeric id order; a
// directory missing its manifest is a crash-interrupted ingest and is
// skipped (re-ingesting the AU overwrites it), but a *corrupt* manifest is
// an error — it means bytes rotted in place, and silently dropping the AU
// would defeat the whole point. An au- directory whose name does not parse
// as a decimal id is rejected explicitly rather than silently loaded or
// skipped: it is either foreign data or corruption of the store root, and
// both deserve an operator's eyes.
func Open(dir string) (*Store, error) {
	return open(dir, commitInterval)
}

// open is Open with the commit window exposed, so tests can park the
// committer (an hour-long window) and observe what a crash inside the window
// leaves on disk.
func open(dir string, interval time.Duration) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		root:     dir,
		aus:      make(map[content.AUID]*Replica),
		creating: make(map[content.AUID]bool),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// AU directories are ordered by parsed numeric id, not by name: auDir
	// zero-pads to 8 digits, so an id >= 10^8 widens the name and a
	// lexicographic sort would diverge from id order across reopen.
	type auDirent struct {
		id   uint64
		name string
	}
	var dirs []auDirent
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "au-") {
			continue
		}
		num := strings.TrimPrefix(e.Name(), "au-")
		id, err := strconv.ParseUint(num, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("store: malformed AU directory name %q in %s", e.Name(), dir)
		}
		dirs = append(dirs, auDirent{id: id, name: e.Name()})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].id < dirs[j].id })
	// On any failure, close the block files of replicas already loaded —
	// the caller gets no Store to Close, so they would leak.
	closeLoaded := func() {
		for _, r := range s.aus {
			r.close()
		}
	}
	for i, d := range dirs {
		if i > 0 && dirs[i-1].id == d.id {
			// "au-7" and "au-00000007" denote the same AU; loading both
			// would double-register it.
			closeLoaded()
			return nil, fmt.Errorf("store: AU directories %q and %q share id %d in %s", dirs[i-1].name, d.name, d.id, dir)
		}
		auDir := filepath.Join(dir, d.name)
		man, err := readManifest(auDir)
		if os.IsNotExist(err) {
			continue // ingest died before the manifest existed; not an AU yet
		}
		if err != nil {
			closeLoaded()
			return nil, err
		}
		r, err := s.openReplica(auDir, man)
		if err != nil {
			closeLoaded()
			return nil, err
		}
		if _, dup := s.aus[man.spec.ID]; dup {
			r.close()
			closeLoaded()
			return nil, fmt.Errorf("store: duplicate AU %v in %s", man.spec.ID, auDir)
		}
		s.aus[man.spec.ID] = r
		s.order = append(s.order, man.spec.ID)
	}
	s.committer = newCommitter(s, interval)
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// auDir returns the directory for one AU.
func (s *Store) auDir(id content.AUID) string {
	return filepath.Join(s.root, fmt.Sprintf("au-%08d", id))
}

// CreateFrom ingests one AU by streaming spec.Size bytes from src through
// streamBlocks: the caller's goroutine reads and writes the content in order
// while up to GOMAXPROCS hash lanes digest it, and at most ingestChunk bytes
// of it are in memory at once, so a multi-GB AU never exists in memory.
// Writeback of each ingestChunk starts as it is written, so the block file's
// fsync waits only for the tail. Block bytes are written and fsynced before
// the manifest that vouches for them, so a crash mid-ingest leaves a
// directory without a manifest — invisible to Open — rather than an AU with
// unvouched bytes. The salt individualizes this replica's damage marks.
//
// All IO runs outside the store lock: concurrent Replica lookups, scrubbing
// and other ingests proceed while an AU streams in. The AU id is reserved up
// front, so two concurrent ingests of one id cannot interleave their writes.
func (s *Store) CreateFrom(spec content.AUSpec, salt uint64, src io.Reader) (*Replica, error) {
	// The manifest decoder refuses negative geometry, so a manifest written
	// with it would fail the next Open of the whole store.
	if spec.Size < 0 || spec.BlockSize < 0 {
		return nil, fmt.Errorf("store: AU %v has negative geometry (size %d, block size %d)", spec.ID, spec.Size, spec.BlockSize)
	}
	if len(spec.Name) > maxNameLen {
		return nil, fmt.Errorf("store: AU %v name exceeds %d bytes", spec.ID, maxNameLen)
	}
	if spec.Blocks() > maxBlocks {
		return nil, fmt.Errorf("store: AU %v has %d blocks, limit %d", spec.ID, spec.Blocks(), maxBlocks)
	}
	// Reserve the id under the lock; stream outside it.
	s.mu.Lock()
	if _, dup := s.aus[spec.ID]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: duplicate AU %v", spec.ID)
	}
	if s.creating[spec.ID] {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: AU %v ingest already in progress", spec.ID)
	}
	s.creating[spec.ID] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, spec.ID)
		s.mu.Unlock()
	}()

	dir := s.auDir(spec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create AU %v: %w", spec.ID, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, blocksName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create AU %v: %w", spec.ID, err)
	}
	// On failure the directory is left without a manifest — the same state
	// a crash leaves — which Open skips and a re-ingest overwrites.
	fail := func(err error) (*Replica, error) {
		f.Close()
		return nil, err
	}
	n := spec.Blocks()
	man := &manifest{spec: spec, salt: salt, digests: make([]content.Hash, n), marks: make([]content.Mark, n)}
	if err := streamBlocks(spec, src, &writeback{w: f, hint: func(off, n int64) { startWriteback(f, off, n) }}, man.digests); err != nil {
		return fail(err)
	}
	if err := fsync(f, &s.fsyncs); err != nil {
		return fail(fmt.Errorf("store: sync AU %v: %w", spec.ID, err))
	}
	s.bytesIngested.Add(uint64(spec.Size))
	// The manifest write is the ingest's commit point; it is synchronous —
	// group commit batches mutations of live AUs, not births of new ones.
	if err := writeManifestBytes(dir, man.encode(), &s.fsyncs); err != nil {
		return fail(err)
	}
	s.manifestMutations.Add(1)
	s.manifestWrites.Add(1)
	s.manifestCommits.Add(1)
	// The au-<id> dirent itself lives in the store root; sync it too, or a
	// power loss after CreateFrom returns could drop the whole AU directory.
	if err := syncDir(s.root, &s.fsyncs); err != nil {
		return fail(fmt.Errorf("store: sync root for AU %v: %w", spec.ID, err))
	}

	r := &Replica{st: s, dir: dir, f: f, man: man, persistedGen: man.gen}
	s.mu.Lock()
	if _, dup := s.aus[spec.ID]; dup {
		// Defensive re-check; the creating reservation makes this
		// unreachable, but registering a second replica for one id would be
		// far worse than failing an ingest.
		s.mu.Unlock()
		f.Close()
		return nil, fmt.Errorf("store: duplicate AU %v", spec.ID)
	}
	s.aus[spec.ID] = r
	s.order = append(s.order, spec.ID)
	s.mu.Unlock()
	return r, nil
}

// streamBlocks copies spec.Size bytes from src to w in order and sets
// digests[i] to the SHA-256 of block i. The caller's goroutine does all the
// reading and writing; it hands each piece it reads to one of
// min(GOMAXPROCS, blocks) hash lanes before writing it, so hashing overlaps
// the write. Every piece of block i goes to lane i mod lanes, which takes its
// blocks' pieces in order, so a block larger than a piece is hashed by one
// lane. Pieces circulate through a free list of at most ingestDepth buffers
// of ingestChunk/ingestDepth bytes (none larger than a block, and no more of
// them than the AU fills), which bounds the content in memory at
// ingestChunk. On failure the lanes are stopped; every lane has exited when
// streamBlocks returns.
func streamBlocks(spec content.AUSpec, src io.Reader, w io.Writer, digests []content.Hash) error {
	_, first := spec.BlockRange(0) // no block is longer than the first
	pieceLen := min(ingestChunk/ingestDepth, first)
	pieces := int64(ingestDepth)
	if pieceLen > 0 {
		pieces = min(pieces, (spec.Size+pieceLen-1)/pieceLen) // no more than the AU
	}
	slab := make([]byte, pieces*pieceLen)
	// free and every lane have room for all the pieces there are, so
	// neither returning a piece nor handing one over ever blocks.
	free := make(chan []byte, pieces)
	for k := range pieces {
		free <- slab[k*pieceLen : (k+1)*pieceLen : (k+1)*pieceLen]
	}
	lanes := make([]chan []byte, min(runtime.GOMAXPROCS(0), len(digests)))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	for l := range lanes {
		in := make(chan []byte, pieces)
		lanes[l] = in
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := sha256.New()
			for i := l; i < len(digests); i += len(lanes) {
				lo, hi := spec.BlockRange(i)
				for off := lo; ; {
					var b []byte
					select {
					case b = <-in:
					case <-stop:
						return
					}
					h.Write(b)
					free <- b
					if off += int64(len(b)); off == hi {
						break
					}
				}
				h.Sum(digests[i][:0])
				h.Reset()
			}
		}()
	}
	for i := range digests {
		lo, hi := spec.BlockRange(i)
		// Every block is at least one piece, so the empty block of an empty
		// AU is hashed too.
		for off := lo; ; {
			b := (<-free)[:min(pieceLen, hi-off)]
			if _, err := io.ReadFull(src, b); err != nil {
				close(stop)
				return fmt.Errorf("store: ingest AU %v: content ends at byte %d of %d: %w", spec.ID, off, spec.Size, err)
			}
			lanes[i%len(lanes)] <- b
			if _, err := w.Write(b); err != nil {
				close(stop)
				return fmt.Errorf("store: write AU %v: %w", spec.ID, err)
			}
			if off += int64(len(b)); off == hi {
				break
			}
		}
	}
	return nil
}

// writeback is the block file's writer during an ingest. Each time another
// ingestChunk bytes have been written, it passes the range written since its
// last hint to hint, which asks the kernel to start writing that range back.
// The fsync that commits the AU then waits for the tail, not the whole AU,
// and the writeback overlaps the stream. No hint follows a failed write.
type writeback struct {
	w    io.Writer
	hint func(off, n int64)
	// written counts the bytes w accepted; [0, hinted) has been hinted.
	written, hinted int64
}

func (wb *writeback) Write(p []byte) (int, error) {
	n, err := wb.w.Write(p)
	wb.written += int64(n)
	if err == nil && wb.written-wb.hinted >= ingestChunk {
		wb.hint(wb.hinted, wb.written-wb.hinted)
		wb.hinted = wb.written
	}
	return n, err
}

// openReplica opens an AU directory already vouched for by man.
func (s *Store) openReplica(dir string, man *manifest) (*Replica, error) {
	f, err := os.OpenFile(filepath.Join(dir, blocksName), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open AU %v: %w", man.spec.ID, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open AU %v: %w", man.spec.ID, err)
	}
	if fi.Size() != man.spec.Size {
		f.Close()
		return nil, fmt.Errorf("store: AU %v block file is %d bytes, manifest says %d", man.spec.ID, fi.Size(), man.spec.Size)
	}
	return &Replica{st: s, dir: dir, f: f, man: man, persistedGen: man.gen}, nil
}

// Replica returns the store's replica of an AU, or nil.
func (s *Store) Replica(id content.AUID) *Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aus[id]
}

// Replicas returns every replica in registration order.
func (s *Store) Replicas() []*Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Replica, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.aus[id])
	}
	return out
}

// AUs returns the stored AU IDs in registration order.
func (s *Store) AUs() []content.AUID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]content.AUID, len(s.order))
	copy(out, s.order)
	return out
}

// InjectDamage flips bits on disk in one block, bypassing the manifest and
// the damage marks entirely — silent corruption, exactly what decades of
// storage produce. The scrubber (or an audit poll) has to find it the honest
// way. Demos and the corruption-repair CI job drive this through
// `lockss-node -inject-damage`.
func (s *Store) InjectDamage(id content.AUID, block int) error {
	r := s.Replica(id)
	if r == nil {
		return fmt.Errorf("store: no AU %v", id)
	}
	if err := r.injectDamage(block); err != nil {
		return err
	}
	s.damageInjected.Add(1)
	return nil
}

// Damage identifies one damaged or unreadable block found by verification.
type Damage struct {
	AU    content.AUID
	Block int
	// Marked reports whether the manifest already records the damage (a
	// scrub or a failed repair has seen it) or the verification found it
	// silently rotted.
	Marked bool
	// Unreadable reports that the block could not be read at all (Err says
	// why): its bytes cannot be vouched for, which is damage for every
	// practical purpose, reported in place so one unreadable block does not
	// mask rot found elsewhere in the store.
	Unreadable bool
	// Err is the read error for an unreadable block, nil otherwise.
	Err error
}

// VerifyAll reads and hashes every block of every AU against its manifest,
// returning all mismatches in replica order, then block order. Read errors
// do not abort the sweep: an unreadable block is reported as Damage with
// Unreadable set and verification continues, so the report always covers the
// whole store. A nil slice means everything verifies.
//
// The store's blocks, numbered across replicas in that order, are striped
// over min(GOMAXPROCS, blocks) workers: worker w checks every block whose
// number is w modulo the worker count. A worker holds a replica's lock only
// while it reads a block, never while it hashes one.
func (s *Store) VerifyAll() []Damage {
	reps := s.Replicas()
	specs := make([]content.AUSpec, len(reps))
	total := 0
	for j, r := range reps {
		specs[j] = r.Spec()
		total += specs[j].Blocks()
	}
	type finding struct {
		seq int // the block's number across the store
		d   Damage
	}
	found := make([][]finding, min(runtime.GOMAXPROCS(0), total))
	var wg sync.WaitGroup
	for w := range found {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			j, base := 0, 0 // the replica holding block seq, and its first number
			for seq := w; seq < total; seq += len(found) {
				for seq-base >= specs[j].Blocks() {
					base += specs[j].Blocks()
					j++
				}
				id, i := specs[j].ID, seq-base
				ok, marked, b, err := reps[j].checkBlock(i, buf)
				buf = b
				switch {
				case err != nil:
					found[w] = append(found[w], finding{seq, Damage{AU: id, Block: i, Marked: marked, Unreadable: true, Err: err}})
				case !ok:
					found[w] = append(found[w], finding{seq, Damage{AU: id, Block: i, Marked: marked}})
				}
			}
		}()
	}
	wg.Wait()
	var all []finding
	for _, f := range found {
		all = append(all, f...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	var out []Damage
	for _, f := range all {
		out = append(out, f.d)
	}
	return out
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		BlocksScanned:     s.blocksScanned.Load(),
		BlocksVerified:    s.blocksVerified.Load(),
		BlocksDamaged:     s.blocksDamaged.Load(),
		BlocksRepaired:    s.blocksRepaired.Load(),
		ScrubPasses:       s.scrubPasses.Load(),
		ManifestMutations: s.manifestMutations.Load(),
		ManifestWrites:    s.manifestWrites.Load(),
		ManifestCommits:   s.manifestCommits.Load(),
		Fsyncs:            s.fsyncs.Load(),
		BytesIngested:     s.bytesIngested.Load(),
		BytesScrubbed:     s.bytesScrubbed.Load(),
		DamageInjected:    s.damageInjected.Load(),
	}
}

// Close stops the scrubber, flushes every dirty manifest through one final
// commit train, then closes every block file. It is idempotent; the first
// error encountered is returned every time.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.StopScrub()
		s.committer.close()
		for _, r := range s.Replicas() {
			if err := r.close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
