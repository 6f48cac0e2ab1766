package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sync"

	"lockss/internal/content"
)

// Replica is one AU preserved on disk. It implements content.Replica: votes
// hash the actual stored bytes (streamed block by block, never the whole AU
// in memory), and repairs land through the crash-safe write path — block
// bytes first, fsync, then the manifest atomically. Unlike the in-memory
// implementations, a store Replica is safe for concurrent use: the node's
// actor loop and the scrub workers serialize on an internal lock.
type Replica struct {
	st  *Store
	dir string
	man *manifest

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

// WalkBlocks implements content.Replica, reading each block into one reused
// buffer. The lock is held only while a block is read, never while fn runs,
// so scrub and repair of this AU interleave with a long hashing pass. An
// unreadable block passes an empty payload: its vote simply disagrees there
// and the poll's repair machinery takes over, rather than the protocol loop
// panicking.
func (r *Replica) WalkBlocks(from int, fn func(i int, payload []byte) bool) {
	spec := r.Spec()
	buf := make([]byte, spec.BlockSize)
	for i := from; i < spec.Blocks(); i++ {
		r.mu.Lock()
		b, err := r.readBlockLocked(i, buf)
		r.mu.Unlock()
		if err != nil {
			b = buf[:0]
		}
		if !fn(i, b) {
			return
		}
	}
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

// verifyBlock reads block i into buf (grown as needed and returned for
// reuse), hashes it, and compares against the manifest: a mismatch records a
// fresh damage mark and a match clears a stale one — the scrubber's write
// side. Mark changes ride the commit train (re-derivable from the block
// bytes, so deferral loses nothing a crash could not already take). It
// returns whether the block verified and whether the manifest now marks it
// damaged.
func (r *Replica) verifyBlock(i int, buf []byte) (ok, marked bool, bufOut []byte, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := r.readBlockLocked(i, buf)
	if err != nil {
		return false, r.man.marks[i] != 0, buf, err
	}
	buf = b
	sum := content.Hash(sha256.Sum256(b))
	ok = sum == r.man.digests[i]
	switch {
	case !ok && r.man.marks[i] == 0:
		r.man.marks[i] = r.freshMarkLocked()
		r.man.gen++
		r.persistLocked()
		r.st.blocksDamaged.Add(1)
	case ok && r.man.marks[i] != 0:
		// The bytes verify but the manifest says damaged: a repair (or a
		// crash-interrupted one) healed the block before the manifest caught
		// up. Complete it.
		r.man.marks[i] = 0
		r.man.gen++
		r.persistLocked()
		r.st.blocksRepaired.Add(1)
	}
	return ok, r.man.marks[i] != 0, buf, nil
}

// checkBlock reads block i into buf (grown as needed and returned for reuse)
// under the lock, then hashes it outside the lock, reporting whether it
// matches its manifest digest and whether the manifest marks it damaged. It
// changes nothing.
func (r *Replica) checkBlock(i int, buf []byte) (ok, marked bool, bufOut []byte, err error) {
	r.mu.Lock()
	b, err := r.readBlockLocked(i, buf)
	digest, marked := r.man.digests[i], r.man.marks[i] != 0
	r.mu.Unlock()
	if err != nil {
		return false, marked, buf, err
	}
	return content.Hash(sha256.Sum256(b)) == digest, marked, b, nil
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
		return nil, fmt.Errorf("store: read block %d of %v: %w", i, r.man.spec, err)
	}
	return buf, nil
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

// close closes the block file. It needs no fsync: every write to the file
// (CreateFrom, writeBlockLocked, injectDamage) is synced before it returns.
func (r *Replica) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
