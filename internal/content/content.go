// Package content models archival units (AUs), their block-structured
// replicas, storage damage ("bit rot"), and the block hashing that votes are
// built from.
//
// Three replica implementations share the Replica interface:
//
//   - RealReplica holds actual bytes in memory and hashes them with SHA-256.
//     The real node's synthetic demos, the examples and the integration
//     tests use it.
//   - store.Replica (internal/store) keeps the bytes on disk behind a
//     crash-safe manifest and streams its vote hashes from the block file;
//     it is the durable backend the preservation node runs on.
//   - SimReplica is symbolic: it tracks only which blocks differ from the
//     publisher's correct content, as a sparse set of damage marks. At
//     simulation scale (100 peers x 600 AUs x 0.5 GB) symbolic replicas
//     reproduce exactly the agreement/disagreement pattern of real ones (a
//     property test checks this equivalence) at negligible memory cost.
//
// Every replica carries a salt so that independent damage events produce
// distinct corrupt content: two peers whose replicas rot at the same block
// must disagree with each other as well as with the correct content.
package content

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"slices"
)

// AUID identifies an archival unit (in the target application, a year's run
// of an on-line journal).
type AUID uint32

// Hash is a block hash. Votes carry one running hash per block boundary.
type Hash [32]byte

// AUSpec describes an archival unit's published shape.
type AUSpec struct {
	ID AUID
	// Name is a human-readable title, e.g. "J. Irreproducible Results 2004".
	Name string
	// Size is the total content size in bytes.
	Size int64
	// BlockSize is the audit/repair granularity in bytes.
	BlockSize int64
}

// Blocks returns the number of blocks in the AU.
func (s AUSpec) Blocks() int {
	if s.BlockSize <= 0 {
		return 1
	}
	n := s.Size / s.BlockSize
	if s.Size%s.BlockSize != 0 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return int(n)
}

// BlockRange returns the byte range [lo, hi) of block i; at BlockSize 0 the
// AU's one block is all of it.
func (s AUSpec) BlockRange(i int) (lo, hi int64) {
	if s.BlockSize <= 0 {
		return 0, s.Size
	}
	lo = int64(i) * s.BlockSize
	return lo, min(lo+s.BlockSize, s.Size)
}

func (s AUSpec) String() string {
	return fmt.Sprintf("AU%d(%q %dB/%dB)", s.ID, s.Name, s.Size, s.BlockSize)
}

// DemoAUSpec names the i-th (0-based) synthetic archival unit of a demo
// collection; every real-node demo (lockss-node, the fleet, loopback
// clusters) synthesizes the same catalogue from the shared publisher stream.
func DemoAUSpec(i int, size, blockSize int64) AUSpec {
	return AUSpec{
		ID:        AUID(i + 1),
		Name:      fmt.Sprintf("journal-%04d", 2000+i),
		Size:      size,
		BlockSize: blockSize,
	}
}

// Mark identifies the content variant occupying a block: zero means the
// publisher's correct content, any other value is a distinct corruption.
type Mark uint64

// DamageEntry reports one damaged block in a replica snapshot.
type DamageEntry struct {
	Block int
	Mark  Mark
}

// Replica is one peer's copy of an AU. Implementations are not safe for
// concurrent use; in the simulator each replica belongs to one peer, and the
// real node serializes access through its scheduler.
type Replica interface {
	// Spec returns the AU's shape.
	Spec() AUSpec
	// VoteHashes returns the running hash at each block boundary for the
	// replica's current content, keyed by the poll nonce. This is the body
	// of a Vote message. Every implementation is VoteHashesOf over its own
	// WalkBlocks.
	VoteHashes(nonce []byte) []Hash
	// WalkBlocks calls fn with each block's current payload, in order from
	// block from (0 ≤ from ≤ Blocks), until fn returns false or the blocks
	// run out. The payload
	// is valid only during the call, and fn must not modify it. A block
	// that cannot be read passes an empty payload, so it hashes as
	// disagreeing content. An evaluation steps every vote's hash chain off
	// one walk, and after a repair at block b walks again from b only.
	WalkBlocks(from int, fn func(i int, payload []byte) bool)
	// Snapshot returns the replica's damaged blocks, sorted by block index.
	// The protocol itself never consults it; symbolic votes and damage
	// metrics do.
	Snapshot() []DamageEntry
	// Damage corrupts block i with fresh, replica-unique corrupt content.
	// Out-of-range indices return false.
	Damage(i int) bool
	// RepairBlock returns repair data for block i suitable for ApplyRepair
	// on another replica of the same AU.
	RepairBlock(i int) ([]byte, error)
	// ApplyRepair overwrites block i with repair data received from a peer.
	ApplyRepair(i int, data []byte) error
	// Damaged reports whether any block differs from the correct content.
	Damaged() bool
	// Generation returns a counter that changes on every content mutation
	// (damage and repair), so callers can key caches of derived data — vote
	// bodies, snapshots — on the replica's state.
	Generation() uint64
}

// VoteHasher chains a replica's block hashes through one digest: the
// boundary hash at block i is H(prev || nonce || block-id || payload). All
// the buffers that cross the hash.Hash interface boundary (and would
// therefore escape per call) live in this struct, so hashing a whole replica
// costs a fixed handful of allocations instead of several per block. Every
// Replica implementation — symbolic, in-memory, and the on-disk store —
// chains through this one type, which is what keeps their vote hashes
// interchangeable on the wire.
type VoteHasher struct {
	h    hash.Hash
	hdr  [12]byte
	prev Hash
}

// NewVoteHasher returns a hasher with an all-zero initial chain value.
func NewVoteHasher() *VoteHasher {
	return &VoteHasher{h: sha256.New()}
}

// Step advances the running-hash chain: prev = H(prev || nonce || block-id
// || payload), returning the new boundary hash.
func (v *VoteHasher) Step(nonce []byte, au AUID, block int, payload []byte) Hash {
	v.h.Reset()
	v.h.Write(v.prev[:])
	v.h.Write(nonce)
	binary.BigEndian.PutUint32(v.hdr[0:4], uint32(au))
	binary.BigEndian.PutUint64(v.hdr[4:12], uint64(block))
	v.h.Write(v.hdr[:])
	v.h.Write(payload)
	v.h.Sum(v.prev[:0])
	return v.prev
}

// From sets the chain value the next Step extends — the boundary hash of the
// block before, or the zero Hash before block 0 — so one hasher can step
// many chains in turn.
func (v *VoteHasher) From(prev Hash) *VoteHasher {
	v.prev = prev
	return v
}

// VoteHashesOf hashes every block of r under nonce through one chain: the
// one implementation of Replica.VoteHashes.
func VoteHashesOf(r Replica, nonce []byte) []Hash {
	spec := r.Spec()
	out := make([]Hash, 0, spec.Blocks())
	v := NewVoteHasher()
	r.WalkBlocks(0, func(i int, payload []byte) bool {
		out = append(out, v.Step(nonce, spec.ID, i, payload))
		return true
	})
	return out
}

// voteHash computes one running-hash chain step: H(prev || nonce || block-id
// || payload). This one-shot form serves tests and spot checks.
func voteHash(prev Hash, nonce []byte, au AUID, block int, payload []byte) Hash {
	return NewVoteHasher().From(prev).Step(nonce, au, block, payload)
}

// correctPayload derives the publisher's canonical content token for a
// block. SimReplica hashes short tokens instead of half-gigabyte blocks; the
// hashing *cost* is charged separately by the effort model.
func correctPayload(au AUID, block int) []byte {
	var b [13]byte
	b[0] = 'C'
	binary.BigEndian.PutUint32(b[1:5], uint32(au))
	binary.BigEndian.PutUint64(b[5:13], uint64(block))
	return b[:]
}

// damagedPayload derives the token for a damaged block variant.
func damagedPayload(au AUID, block int, mark Mark) []byte {
	var b [21]byte
	b[0] = 'X'
	binary.BigEndian.PutUint32(b[1:5], uint32(au))
	binary.BigEndian.PutUint64(b[5:13], uint64(block))
	binary.BigEndian.PutUint64(b[13:21], uint64(mark))
	return b[:]
}

// isCorrectPayload reports whether data is the publisher's canonical token
// for the block, without materializing the token.
func isCorrectPayload(data []byte, au AUID, block int) bool {
	return len(data) == 13 && data[0] == 'C' &&
		binary.BigEndian.Uint32(data[1:5]) == uint32(au) &&
		binary.BigEndian.Uint64(data[5:13]) == uint64(block)
}

// SimReplica is the symbolic replica used at simulation scale.
type SimReplica struct {
	spec AUSpec
	salt uint64
	// damaged maps block index -> damage mark (non-zero).
	damaged map[int]Mark
	// events counts local damage events to derive fresh marks.
	events uint32
	// gen counts mutations (damage and repair), so callers can key caches of
	// derived data on the replica's damage state.
	gen uint64
	// snap caches the sorted damage snapshot between mutations. The cached
	// slice may be shared by votes still in flight, so mutations drop it and
	// the next Snapshot builds a fresh slice instead of editing in place.
	snap []DamageEntry
}

// NewSimReplica returns a correct (undamaged) symbolic replica. The salt
// must be unique per (peer, AU) so that independent corruption events yield
// distinct content.
func NewSimReplica(spec AUSpec, salt uint64) *SimReplica {
	return &SimReplica{spec: spec, salt: salt, damaged: make(map[int]Mark)}
}

// Spec implements Replica.
func (r *SimReplica) Spec() AUSpec { return r.spec }

// payload returns the content token for block i.
func (r *SimReplica) payload(i int) []byte {
	if m, ok := r.damaged[i]; ok {
		return damagedPayload(r.spec.ID, i, m)
	}
	return correctPayload(r.spec.ID, i)
}

// appendPayload is payload into a caller-reused buffer.
func (r *SimReplica) appendPayload(dst []byte, i int) []byte {
	if m, ok := r.damaged[i]; ok {
		dst = append(dst, 'X')
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.spec.ID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(i))
		return binary.BigEndian.AppendUint64(dst, uint64(m))
	}
	dst = append(dst, 'C')
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.spec.ID))
	return binary.BigEndian.AppendUint64(dst, uint64(i))
}

// VoteHashes implements Replica.
func (r *SimReplica) VoteHashes(nonce []byte) []Hash { return VoteHashesOf(r, nonce) }

// WalkBlocks implements Replica over the symbolic content tokens.
func (r *SimReplica) WalkBlocks(from int, fn func(i int, payload []byte) bool) {
	var pbuf [21]byte
	for i := from; i < r.spec.Blocks(); i++ {
		if !fn(i, r.appendPayload(pbuf[:0], i)) {
			return
		}
	}
}

// Snapshot implements Replica. The returned slice is cached until the next
// mutation and shared between callers; treat it as read-only.
func (r *SimReplica) Snapshot() []DamageEntry {
	if r.snap == nil {
		out := make([]DamageEntry, 0, len(r.damaged))
		for i, m := range r.damaged {
			out = append(out, DamageEntry{Block: i, Mark: m})
		}
		slices.SortFunc(out, func(a, b DamageEntry) int { return a.Block - b.Block })
		r.snap = out
	}
	return r.snap
}

// Generation returns a counter that changes on every mutation, for keying
// caches of data derived from the damage state.
func (r *SimReplica) Generation() uint64 { return r.gen }

// mutated invalidates snapshot caches after a damage-state change.
func (r *SimReplica) mutated() {
	r.gen++
	r.snap = nil
}

// freshMark derives a new replica-unique damage mark.
func (r *SimReplica) freshMark() Mark {
	r.events++
	m := Mark(r.salt<<20 | uint64(r.events))
	if m == 0 {
		m = 1
	}
	return m
}

// Damage implements Replica. Damaging an already-damaged block re-corrupts
// it with fresh content.
func (r *SimReplica) Damage(i int) bool {
	if i < 0 || i >= r.spec.Blocks() {
		return false
	}
	r.damaged[i] = r.freshMark()
	r.mutated()
	return true
}

// RepairBlock implements Replica: the repair payload is the block's current
// content token (correct if the supplier is undamaged at i).
func (r *SimReplica) RepairBlock(i int) ([]byte, error) {
	if i < 0 || i >= r.spec.Blocks() {
		return nil, fmt.Errorf("content: repair block %d out of range for %v", i, r.spec)
	}
	p := r.payload(i)
	out := make([]byte, len(p))
	copy(out, p)
	return out, nil
}

// ApplyRepair implements Replica. Applying the canonical correct payload
// clears the damage mark; applying a corrupt payload records its mark (a
// damaged supplier propagates corruption — the protocol guards against this
// with landslide majorities and repair re-evaluation, not the replica).
func (r *SimReplica) ApplyRepair(i int, data []byte) error {
	if i < 0 || i >= r.spec.Blocks() {
		return fmt.Errorf("content: repair block %d out of range for %v", i, r.spec)
	}
	if isCorrectPayload(data, r.spec.ID, i) {
		delete(r.damaged, i)
		r.mutated()
		return nil
	}
	if len(data) == 21 && data[0] == 'X' &&
		binary.BigEndian.Uint32(data[1:5]) == uint32(r.spec.ID) &&
		binary.BigEndian.Uint64(data[5:13]) == uint64(i) {
		r.damaged[i] = Mark(binary.BigEndian.Uint64(data[13:21]))
		r.mutated()
		return nil
	}
	return fmt.Errorf("content: malformed symbolic repair payload for block %d", i)
}

// Damaged implements Replica.
func (r *SimReplica) Damaged() bool { return len(r.damaged) > 0 }

// RealReplica holds actual content bytes.
type RealReplica struct {
	spec   AUSpec
	salt   uint64
	events uint32
	gen    uint64
	data   []byte
	// damaged tracks which blocks were corrupted and with what mark, so
	// Snapshot need not diff against the canonical content.
	damaged map[int]Mark
}

// PublisherBytes materializes the publisher's canonical content for spec:
// deterministic pseudo-random bytes derived from the AU ID, so every peer
// starting from the publisher holds identical bytes. The real node's
// synthetic demo AUs and the durable store's ingest both derive publisher
// content from this one keystream.
func PublisherBytes(spec AUSpec) []byte {
	data := make([]byte, spec.Size)
	keystream(publisherKey(spec.ID), 0, data)
	return data
}

// PublisherReader streams the publisher's canonical content for spec — the
// exact bytes PublisherBytes materializes, produced incrementally — so
// archive-sized synthetic AUs can flow through Store.CreateFrom without ever
// existing in memory.
func PublisherReader(spec AUSpec) io.Reader {
	return &pubReader{ks: keystream(publisherKey(spec.ID), 0, nil), rem: spec.Size}
}

type pubReader struct {
	ks  cipher.Stream
	rem int64
}

func (r *pubReader) Read(p []byte) (int, error) {
	if r.rem <= 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), r.rem)]
	clear(p)
	r.ks.XORKeyStream(p, p)
	r.rem -= int64(len(p))
	return len(p), nil
}

// publisherKey is the key of AU id's publisher keystream: the digest of its
// ID.
func publisherKey(id AUID) [sha256.Size]byte {
	var seed [8]byte
	binary.BigEndian.PutUint32(seed[:4], uint32(id))
	return sha256.Sum256(seed[:])
}

// keystream fills out with the AES-256-CTR keystream under key from byte off
// on, and returns the stream positioned after it. Byte o of the keystream is
// byte o%16 of counter block o/16, so any range is generated without the
// bytes before it.
func keystream(key [sha256.Size]byte, off int64, out []byte) cipher.Stream {
	b, _ := aes.NewCipher(key[:]) // a 32-byte key cannot fail
	var ctr, skip [aes.BlockSize]byte
	binary.BigEndian.PutUint64(ctr[8:], uint64(off/aes.BlockSize))
	ks := cipher.NewCTR(b, ctr[:])
	ks.XORKeyStream(skip[:off%aes.BlockSize], skip[:off%aes.BlockSize])
	clear(out)
	ks.XORKeyStream(out, out)
	return ks
}

// NewRealReplica starts a replica from the publisher's canonical content.
// The salt individualizes corruption, exactly as for SimReplica.
func NewRealReplica(spec AUSpec, salt uint64) *RealReplica {
	return &RealReplica{spec: spec, salt: salt, data: PublisherBytes(spec), damaged: make(map[int]Mark)}
}

// Spec implements Replica.
func (r *RealReplica) Spec() AUSpec { return r.spec }

// Salt returns the salt the replica was built with.
func (r *RealReplica) Salt() uint64 { return r.salt }

// block returns block i's bytes.
func (r *RealReplica) block(i int) []byte {
	lo, hi := r.spec.BlockRange(i)
	return r.data[lo:hi]
}

// canonicalBlock regenerates the publisher's bytes for block i.
func (r *RealReplica) canonicalBlock(i int) []byte {
	lo, hi := r.spec.BlockRange(i)
	out := make([]byte, hi-lo)
	keystream(publisherKey(r.spec.ID), lo, out)
	return out
}

// VoteHashes implements Replica.
func (r *RealReplica) VoteHashes(nonce []byte) []Hash { return VoteHashesOf(r, nonce) }

// WalkBlocks implements Replica over the bytes in memory.
func (r *RealReplica) WalkBlocks(from int, fn func(i int, payload []byte) bool) {
	for i := from; i < r.spec.Blocks(); i++ {
		if !fn(i, r.block(i)) {
			return
		}
	}
}

// Snapshot implements Replica.
func (r *RealReplica) Snapshot() []DamageEntry {
	out := make([]DamageEntry, 0, len(r.damaged))
	for i, m := range r.damaged {
		out = append(out, DamageEntry{Block: i, Mark: m})
	}
	slices.SortFunc(out, func(a, b DamageEntry) int { return a.Block - b.Block })
	return out
}

// CorruptBytes derives the deterministic corrupt content a damage event
// with the given mark produces for a block: distinct marks yield distinct
// bytes, so independently rotted replicas disagree with each other as well
// as with the publisher. RealReplica.Damage and the on-disk store's Damage
// share this one derivation.
func CorruptBytes(mark Mark, block, n int) []byte {
	out := make([]byte, n)
	var seed [16]byte
	binary.BigEndian.PutUint64(seed[0:8], uint64(mark))
	binary.BigEndian.PutUint64(seed[8:16], uint64(block))
	keystream(sha256.Sum256(seed[:]), 0, out)
	return out
}

// Damage implements Replica by overwriting block i with replica-unique
// pseudo-random corruption.
func (r *RealReplica) Damage(i int) bool {
	if i < 0 || i >= r.spec.Blocks() {
		return false
	}
	r.events++
	mark := Mark(r.salt<<20 | uint64(r.events))
	if mark == 0 {
		mark = 1
	}
	b := r.block(i)
	copy(b, CorruptBytes(mark, i, len(b)))
	r.damaged[i] = mark
	r.gen++
	return true
}

// RepairBlock implements Replica.
func (r *RealReplica) RepairBlock(i int) ([]byte, error) {
	if i < 0 || i >= r.spec.Blocks() {
		return nil, fmt.Errorf("content: repair block %d out of range for %v", i, r.spec)
	}
	b := r.block(i)
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// ApplyRepair implements Replica.
func (r *RealReplica) ApplyRepair(i int, data []byte) error {
	if i < 0 || i >= r.spec.Blocks() {
		return fmt.Errorf("content: repair block %d out of range for %v", i, r.spec)
	}
	b := r.block(i)
	if len(data) != len(b) {
		return fmt.Errorf("content: repair for block %d has %d bytes, want %d", i, len(data), len(b))
	}
	copy(b, data)
	if string(data) == string(r.canonicalBlock(i)) {
		delete(r.damaged, i)
	} else {
		r.events++
		r.damaged[i] = Mark(r.salt<<20 | uint64(r.events))
	}
	r.gen++
	return nil
}

// Damaged implements Replica.
func (r *RealReplica) Damaged() bool { return len(r.damaged) > 0 }

// Generation implements Replica.
func (r *RealReplica) Generation() uint64 { return r.gen }
