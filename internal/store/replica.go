package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"unsafe"

	"lockss/internal/content"
)

// Replica is one AU preserved on disk. It implements content.Replica: votes
// hash the actual stored bytes (streamed block by block, never the whole AU
// in memory), and repairs land through the crash-safe write path — block
// bytes first, fsync, then the manifest atomically. Unlike the in-memory
// implementations, a store Replica is safe for concurrent use: the node's
// actor loop and the scrub workers serialize on an internal lock.
//
// Where the platform allows, the block file is also mapped read-only and
// shared, and hashing reads the mapped bytes in place instead of copying
// each block out of the page cache (see blockLocked). Repairs and injected
// damage still write through f, and the shared mapping shows those writes.
type Replica struct {
	st  *Store
	dir string
	man *manifest

	// mapMu is the mapping's reader lock: a reader holds it shared from
	// before it reads m until it is done with the mapped bytes, and close
	// holds it exclusively, before mu, while it unmaps. Lock order: mapMu,
	// then mu.
	mapMu sync.RWMutex
	// m maps the block file, or is nil: on a platform without mappings, when
	// the map failed, and after close. Guarded by mapMu or mu for reading,
	// written under both.
	m []byte

	mu sync.Mutex
	f  *os.File
	// persistedGen is the manifest generation durably on disk; the
	// committer advances it as commit trains land. man.gen running ahead of
	// it means the replica is dirty.
	persistedGen uint64
}

// Spec implements content.Replica.
func (r *Replica) Spec() content.AUSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man.spec
}

// Salt returns the salt the replica was ingested with; the manifest persists
// it, so it survives reopening whatever salt a later caller would derive.
func (r *Replica) Salt() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man.salt
}

// Generation implements content.Replica: the manifest's persisted mutation
// counter, so vote caching keyed on it survives restarts coherently.
func (r *Replica) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man.gen
}

// VoteHashes implements content.Replica by streaming the block file through
// the shared running-hash chain. The hashes cover whatever bytes are on disk
// right now — a rotted block votes wrong, which is how polls catch damage
// the scrubber has not reached yet.
func (r *Replica) VoteHashes(nonce []byte) []content.Hash { return content.VoteHashesOf(r, nonce) }

// WalkBlocks implements content.Replica through blockLocked: a mapped
// replica passes each block's bytes in place, any other reads them into one
// buffer it reuses. The lock is held only while a block is located (or
// read), never while fn runs, so scrub and repair of this AU interleave with
// a long hashing pass; a mapped payload may therefore show a repair or
// damage written to that block during fn, which then reads as rot. An
// unreadable block passes an empty payload: its vote simply disagrees there
// and the poll's repair machinery takes over, rather than the protocol loop
// panicking.
func (r *Replica) WalkBlocks(from int, fn func(i int, payload []byte) bool) {
	n := r.Spec().Blocks()
	var buf []byte
	for i := from; i < n; i++ {
		if !r.walkBlock(i, &buf, fn) {
			return
		}
	}
}

// walkBlock passes block i to fn, holding the mapping's reader lock until
// fn returns so close cannot unmap the payload under it. So fn must not
// close the store: Close would wait for fn.
func (r *Replica) walkBlock(i int, buf *[]byte, fn func(i int, payload []byte) bool) bool {
	r.mapMu.RLock()
	defer r.mapMu.RUnlock()
	r.mu.Lock()
	b, err := r.blockLocked(i, buf)
	r.mu.Unlock()
	if err != nil {
		b = nil
	}
	return fn(i, b)
}

// Snapshot implements content.Replica from the persisted damage marks.
func (r *Replica) Snapshot() []content.DamageEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []content.DamageEntry
	for i, m := range r.man.marks {
		if m != 0 {
			out = append(out, content.DamageEntry{Block: i, Mark: m})
		}
	}
	return out
}

// Damaged implements content.Replica.
func (r *Replica) Damaged() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.man.marks {
		if m != 0 {
			return true
		}
	}
	return false
}

// Damage implements content.Replica: overwrite block i on disk with
// replica-unique pseudo-random corruption and persist the damage mark. This
// is *marked* damage (the replica knows it is damaged) — demos of silent rot
// use Store.InjectDamage instead.
func (r *Replica) Damage(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= r.man.spec.Blocks() {
		return false
	}
	mark := r.freshMarkLocked()
	lo, hi := r.man.spec.BlockRange(i)
	b := content.CorruptBytes(mark, i, int(hi-lo))
	if err := r.writeBlockLocked(i, b); err != nil {
		return false
	}
	r.man.marks[i] = mark
	r.man.gen++
	// The mark rides the next commit train; losing it to a crash is
	// harmless — the bytes on disk are corrupt regardless, and a scrub pass
	// re-derives the mark from them.
	r.persistLocked()
	return true
}

// RepairBlock implements content.Replica: the repair payload is the block's
// current bytes on disk (correct if this replica is undamaged at i).
func (r *Replica) RepairBlock(i int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= r.man.spec.Blocks() {
		return nil, fmt.Errorf("store: repair block %d out of range for %v", i, r.man.spec)
	}
	return r.readBlockLocked(i, nil)
}

// ApplyRepair implements content.Replica through the crash-safe write path:
// the block bytes are written and fsynced first, then the manifest is
// committed — through the group-commit barrier, so the call does not return
// until the new manifest is on disk, but concurrent repairs share one fsync
// train. A crash between the block write and the commit leaves the old
// manifest — the block still marked damaged — and the next scrub pass
// observes the healed bytes and clears the mark. Repair data that does not
// match the ingest digest is still written (the poll's landslide majority
// outranks our local history) but the block stays marked, with a fresh mark,
// so scrubbing and future polls keep pursuing it.
func (r *Replica) ApplyRepair(i int, data []byte) error {
	r.mu.Lock()
	if i < 0 || i >= r.man.spec.Blocks() {
		r.mu.Unlock()
		return fmt.Errorf("store: repair block %d out of range for %v", i, r.man.spec)
	}
	lo, hi := r.man.spec.BlockRange(i)
	if int64(len(data)) != hi-lo {
		r.mu.Unlock()
		return fmt.Errorf("store: repair for block %d has %d bytes, want %d", i, len(data), hi-lo)
	}
	if err := r.writeBlockLocked(i, data); err != nil {
		r.mu.Unlock()
		return err
	}
	sum := content.Hash(sha256.Sum256(data))
	healed := false
	if sum == r.man.digests[i] {
		healed = r.man.marks[i] != 0
		r.man.marks[i] = 0
	} else {
		r.man.marks[i] = r.freshMarkLocked()
	}
	r.man.gen++
	r.persistLocked()
	r.mu.Unlock()
	// Repairs are the crash-safety-critical manifest path: wait out the
	// commit train (taken without r.mu — the committer needs it to encode).
	if err := r.st.Flush(); err != nil {
		return err
	}
	if healed {
		r.st.blocksRepaired.Add(1)
	}
	return nil
}

// blockResult is what hashing one block against its manifest digest found:
// whether it verified, whether the manifest marks it damaged, and the read
// error if it could not be read.
type blockResult struct {
	ok, marked bool
	err        error
}

// verifyBlocks verifies the run of len(res) <= runBlocks consecutive blocks
// starting at from, block by block in order, into res: a mismatch records a
// fresh damage mark and a match clears a stale one — the scrubber's write
// side. Mark changes ride the commit train (re-derivable from the block
// bytes, so deferral loses nothing a crash could not already take). r.mu is
// held across the whole run: up to sixteen blocks of hashing, 1 MiB at the
// archive's 64 KiB blocks. A run mappedRunLocked accepts is hashed by
// sum16; any other hashes block by block through blockLocked, copying into
// *buf only without a mapping. Either way every block gets the outcome,
// marks, counters and error a run of one would give it.
func (r *Replica) verifyBlocks(from int, res []blockResult, buf *[]byte) {
	r.mapMu.RLock()
	defer r.mapMu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var sums [runBlocks]content.Hash
	run := r.mappedRunLocked(from, len(res))
	if run != nil {
		sum16(run, len(run)/runBlocks, len(run)/runBlocks, &sums)
	}
	for k := range res {
		i := from + k
		if run == nil {
			b, err := r.blockLocked(i, buf)
			if err != nil {
				res[k] = blockResult{marked: r.man.marks[i] != 0, err: err}
				continue
			}
			sums[k] = sha256.Sum256(b)
		}
		ok := sums[k] == r.man.digests[i]
		switch {
		case !ok && r.man.marks[i] == 0:
			r.man.marks[i] = r.freshMarkLocked()
			r.man.gen++
			r.persistLocked()
			r.st.blocksDamaged.Add(1)
		case ok && r.man.marks[i] != 0:
			// The bytes verify but the manifest says damaged: a repair (or a
			// crash-interrupted one) healed the block before the manifest
			// caught up. Complete it.
			r.man.marks[i] = 0
			r.man.gen++
			r.persistLocked()
			r.st.blocksRepaired.Add(1)
		}
		res[k] = blockResult{ok: ok, marked: r.man.marks[i] != 0}
	}
}

// checkBlocks checks the run of len(res) <= runBlocks consecutive blocks
// starting at from against their manifest digests into res, changing
// nothing. It locates a run mappedRunLocked accepts under the lock and
// hashes it with sum16 outside; any other run goes block by block, each
// located (or copied into *buf) under the lock and hashed outside it.
// Mapped bytes hashed outside the lock may show a write to the block made
// meanwhile, which then reads as rot.
func (r *Replica) checkBlocks(from int, res []blockResult, buf *[]byte) {
	r.mapMu.RLock()
	defer r.mapMu.RUnlock()
	r.mu.Lock()
	run := r.mappedRunLocked(from, len(res))
	if run == nil {
		r.mu.Unlock()
		for k := range res {
			res[k] = r.checkBlock(from+k, buf)
		}
		return
	}
	var digests [runBlocks]content.Hash
	copy(digests[:], r.man.digests[from:])
	for k := range res {
		res[k] = blockResult{marked: r.man.marks[from+k] != 0}
	}
	r.mu.Unlock()
	var sums [runBlocks]content.Hash
	sum16(run, len(run)/runBlocks, len(run)/runBlocks, &sums)
	for k := range res {
		res[k].ok = sums[k] == digests[k]
	}
}

// checkBlock is checkBlocks for the one block i. The caller holds mapMu
// shared.
func (r *Replica) checkBlock(i int, buf *[]byte) blockResult {
	r.mu.Lock()
	b, err := r.blockLocked(i, buf)
	digest, marked := r.man.digests[i], r.man.marks[i] != 0
	r.mu.Unlock()
	if err != nil {
		return blockResult{marked: marked, err: err}
	}
	return blockResult{ok: content.Hash(sha256.Sum256(b)) == digest, marked: marked}
}

// injectDamage flips the bits of one byte in the middle of the block,
// touching neither marks nor manifest.
func (r *Replica) injectDamage(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= r.man.spec.Blocks() {
		return fmt.Errorf("store: inject block %d out of range for %v", i, r.man.spec)
	}
	if r.f == nil {
		return fmt.Errorf("store: AU %v is closed", r.man.spec.ID)
	}
	lo, hi := r.man.spec.BlockRange(i)
	off := lo + (hi-lo)/2
	var b [1]byte
	if _, err := r.f.ReadAt(b[:], off); err != nil {
		return fmt.Errorf("store: inject damage: %w", err)
	}
	b[0] ^= 0xFF
	if _, err := r.f.WriteAt(b[:], off); err != nil {
		return fmt.Errorf("store: inject damage: %w", err)
	}
	return fsync(r.f, &r.st.fsyncs)
}

// freshMarkLocked derives a new replica-unique damage mark and persists the
// event counter with the next manifest write.
func (r *Replica) freshMarkLocked() content.Mark {
	r.man.events++
	m := content.Mark(r.man.salt<<20 | uint64(r.man.events))
	if m == 0 {
		m = 1
	}
	return m
}

// blockLocked returns block i's bytes for hashing, the one accessor every
// hashing read of a single block goes through. A mapped replica returns
// them in place (see mappedLocked), valid until the caller drops the
// mapping's reader lock; any other reads them into *buf (grown as needed).
// The caller holds mapMu shared and mu.
func (r *Replica) blockLocked(i int, buf *[]byte) ([]byte, error) {
	if r.m == nil {
		b, err := r.readBlockLocked(i, *buf)
		if err == nil {
			*buf = b
		}
		return b, err
	}
	lo, hi := r.man.spec.BlockRange(i)
	size, err := fileSize(r.f)
	if err != nil {
		return nil, r.readErr(i, err)
	}
	b, ok := r.mappedLocked(lo, hi, size)
	if !ok {
		return nil, r.readErr(i, io.EOF)
	}
	return b, nil
}

// mappedRunLocked returns the mapped bytes of the n blocks starting at from
// when sum16 can hash them in place as one run: a full run of runBlocks
// blocks, all of the AU's full block size, on a CPU with the kernel, mapped
// and passing mappedLocked under one fstat. Otherwise it returns nil and the
// run goes block by block, through checks that fail each block exactly as a
// run of one would. The caller holds mapMu shared and mu.
func (r *Replica) mappedRunLocked(from, n int) []byte {
	if !hasSum16 || n != runBlocks || r.m == nil {
		return nil
	}
	lo, _ := r.man.spec.BlockRange(from)
	_, hi := r.man.spec.BlockRange(from + n - 1)
	if hi-lo != runBlocks*r.man.spec.BlockSize {
		return nil // the AU's short last block
	}
	size, err := fileSize(r.f)
	if err != nil {
		return nil
	}
	b, ok := r.mappedLocked(lo, hi, size)
	if !ok {
		return nil
	}
	return b
}

// mappedLocked returns the mapped bytes [lo, hi) of a file size bytes long,
// reporting whether they may be used: only if the file covers them all (a
// partial last page of a truncated file reads as zeros, not as a fault) and
// every page of them reads without a fault (truncation racing the size
// check, or an IO error). A mapped block used only after these checks fails
// exactly as the copying read would.
func (r *Replica) mappedLocked(lo, hi, size int64) ([]byte, bool) {
	if hi > size {
		return nil, false
	}
	b := r.m[lo:hi]
	return b, probe(r.m, b)
}

// probe touches one byte in every page of b, a slice of the mapping m,
// reporting false if that faults. A fault at an address outside m is not
// the store's to absorb and panics again.
func probe(m, b []byte) (ok bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if ok {
			return
		}
		e := recover()
		f, isFault := e.(interface{ Addr() uintptr })
		base := uintptr(unsafe.Pointer(unsafe.SliceData(m)))
		if !isFault || f.Addr() < base || f.Addr()-base >= uintptr(len(m)) {
			panic(e)
		}
	}()
	touch(b)
	return true
}

// runBlocks is the most consecutive blocks of one replica a single
// verification takes at once: the lanes of sum16.
const runBlocks = 16

// pageSize is the stride at which probe touches a block.
var pageSize = os.Getpagesize()

// touch reads b's first byte, one byte a page after it, and its last byte;
// b is a mapped block, never empty. It is not inlined, so the reads it
// returns the sum of are not discarded.
//
//go:noinline
func touch(b []byte) (sum byte) {
	for off := 0; off < len(b); off += pageSize {
		sum += b[off]
	}
	return sum + b[len(b)-1]
}

// readBlockLocked reads block i into buf (grown as needed).
func (r *Replica) readBlockLocked(i int, buf []byte) ([]byte, error) {
	if r.f == nil {
		return nil, fmt.Errorf("store: AU %v is closed", r.man.spec.ID)
	}
	lo, hi := r.man.spec.BlockRange(i)
	n := int(hi - lo)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := r.f.ReadAt(buf, lo); err != nil {
		return nil, r.readErr(i, err)
	}
	return buf, nil
}

// readErr is the error a read of block i that failed with err returns.
func (r *Replica) readErr(i int, err error) error {
	return fmt.Errorf("store: read block %d of %v: %w", i, r.man.spec, err)
}

// writeBlockLocked writes and fsyncs block i's bytes.
func (r *Replica) writeBlockLocked(i int, b []byte) error {
	if r.f == nil {
		return fmt.Errorf("store: AU %v is closed", r.man.spec.ID)
	}
	lo, _ := r.man.spec.BlockRange(i)
	if _, err := r.f.WriteAt(b, lo); err != nil {
		return fmt.Errorf("store: write block %d of %v: %w", i, r.man.spec, err)
	}
	if err := fsync(r.f, &r.st.fsyncs); err != nil {
		return fmt.Errorf("store: sync block %d of %v: %w", i, r.man.spec, err)
	}
	return nil
}

// persistLocked hands the manifest mutation just applied to the committer:
// it marks the replica dirty for the next commit train and returns
// immediately (ApplyRepair adds the Flush barrier on top). Called with r.mu
// held.
func (r *Replica) persistLocked() {
	r.st.manifestMutations.Add(1)
	r.st.committer.markDirty(r)
}

// close unmaps and closes the block file. It waits out every reader inside
// the mapping. It needs no fsync: every write to the file (CreateFrom,
// writeBlockLocked, injectDamage) is synced before it returns.
func (r *Replica) close() error {
	r.mapMu.Lock()
	defer r.mapMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	var err error
	if r.m != nil {
		err = unmapFile(r.m)
		r.m = nil
	}
	err = errors.Join(err, r.f.Close())
	r.f = nil
	return err
}
