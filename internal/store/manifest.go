// Package store is the durable on-disk AU backend: a crash-safe,
// content-addressed, block-oriented store that the real node preserves and
// repairs for real, in place of regenerating synthetic replicas in memory.
//
// On-disk layout, one directory per archival unit under the store root:
//
//	<root>/au-<id>/blocks.dat   raw block bytes, spec.Size total
//	<root>/au-<id>/manifest     versioned, checksummed metadata (below)
//
// The manifest records the AU's shape, the SHA-256 digest of every block as
// ingested from the publisher, and a per-block damage mark (zero = believed
// intact). It is only ever replaced atomically — encode to manifest.tmp,
// fsync, rename over manifest, fsync the directory — so a crash at any
// instant leaves either the old or the new manifest, never a torn one. Block
// data is written and fsynced *before* the manifest that describes it, so
// the invariant a crash preserves is: a block the manifest calls damaged may
// secretly already be healed (the next scrub pass notices and clears the
// mark), but a block the manifest calls intact is never silently wrong
// unless the medium itself rots — which is exactly what scrubbing and the
// audit protocol exist to catch.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"lockss/internal/content"
)

// Manifest format constants.
const (
	manifestMagic   = "LOCKSSM1"
	manifestVersion = 1

	// maxNameLen bounds the AU name field against hostile manifests.
	maxNameLen = 4096
	// maxBlocks matches the wire codec's per-AU block limit.
	maxBlocks = 1 << 22
)

// manifestName and blocksName are the fixed file names inside an AU dir.
const (
	manifestName = "manifest"
	blocksName   = "blocks.dat"
)

// ErrManifestCorrupt reports a manifest whose bytes fail validation —
// truncation, bit flips, bad magic, or an inconsistent geometry.
var ErrManifestCorrupt = errors.New("store: corrupt manifest")

// manifest is the decoded per-AU metadata: the AU's published shape, the
// digest of each block as ingested, and the current damage marks.
type manifest struct {
	spec   content.AUSpec
	salt   uint64
	gen    uint64
	events uint32
	// digests[i] is the SHA-256 of block i's ingested bytes (the partial
	// last block is hashed at its true length).
	digests []content.Hash
	// marks[i] is zero while block i is believed intact, else the damage
	// mark Snapshot reports.
	marks []content.Mark
}

// encode serializes the manifest with a trailing SHA-256 checksum over every
// preceding byte.
func (m *manifest) encode() []byte {
	n := len(m.digests)
	buf := make([]byte, 0, 8+4+4+len(m.spec.Name)+8+8+8+8+4+4+n*40+32)
	buf = append(buf, manifestMagic...)
	buf = binary.BigEndian.AppendUint32(buf, manifestVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.spec.Name)))
	buf = append(buf, m.spec.Name...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.spec.ID))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.spec.Size))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.spec.BlockSize))
	buf = binary.BigEndian.AppendUint64(buf, m.salt)
	buf = binary.BigEndian.AppendUint64(buf, m.gen)
	buf = binary.BigEndian.AppendUint32(buf, m.events)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		buf = append(buf, m.digests[i][:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.marks[i]))
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decodeManifest parses and validates manifest bytes. Any corruption —
// truncation, a flipped bit anywhere, inconsistent geometry — yields
// ErrManifestCorrupt (wrapped with detail); it never panics and never
// returns a partially-filled manifest.
func decodeManifest(data []byte) (*manifest, error) {
	// The checksum is verified first: it covers every failure mode at once,
	// and the field parsing below then runs on bytes known to be exactly
	// what encode produced (its bounds checks guard against crafted inputs,
	// e.g. a re-checksummed hostile manifest).
	if len(data) < len(manifestMagic)+4+32 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrManifestCorrupt, len(data))
	}
	body, tail := data[:len(data)-32], data[len(data)-32:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrManifestCorrupt)
	}
	if string(body[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrManifestCorrupt)
	}
	r := body[len(manifestMagic):]
	u32 := func() (uint32, bool) {
		if len(r) < 4 {
			return 0, false
		}
		v := binary.BigEndian.Uint32(r)
		r = r[4:]
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(r) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(r)
		r = r[8:]
		return v, true
	}
	version, ok := u32()
	if !ok || version != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrManifestCorrupt, version)
	}
	nameLen, ok := u32()
	if !ok || nameLen > maxNameLen || int(nameLen) > len(r) {
		return nil, fmt.Errorf("%w: name length %d out of range", ErrManifestCorrupt, nameLen)
	}
	name := string(r[:nameLen])
	r = r[nameLen:]
	m := &manifest{}
	m.spec.Name = name
	id, ok1 := u32()
	size, ok2 := u64()
	blockSize, ok3 := u64()
	salt, ok4 := u64()
	gen, ok5 := u64()
	events, ok6 := u32()
	nblocks, ok7 := u32()
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
		return nil, fmt.Errorf("%w: truncated header", ErrManifestCorrupt)
	}
	m.spec.ID = content.AUID(id)
	m.spec.Size = int64(size)
	m.spec.BlockSize = int64(blockSize)
	m.salt, m.gen, m.events = salt, gen, events
	if m.spec.Size < 0 || m.spec.BlockSize < 0 {
		return nil, fmt.Errorf("%w: negative geometry", ErrManifestCorrupt)
	}
	if nblocks > maxBlocks || int(nblocks) != m.spec.Blocks() {
		return nil, fmt.Errorf("%w: %d block records for a %d-block AU", ErrManifestCorrupt, nblocks, m.spec.Blocks())
	}
	if len(r) != int(nblocks)*40 {
		return nil, fmt.Errorf("%w: %d trailing bytes for %d blocks", ErrManifestCorrupt, len(r), nblocks)
	}
	m.digests = make([]content.Hash, nblocks)
	m.marks = make([]content.Mark, nblocks)
	for i := range m.digests {
		copy(m.digests[i][:], r[:32])
		m.marks[i] = content.Mark(binary.BigEndian.Uint64(r[32:40]))
		r = r[40:]
	}
	return m, nil
}

// writeManifestBytes atomically replaces dir's manifest with pre-encoded
// bytes: write to a temp file, fsync it, rename over the live name, fsync the
// directory. A crash at any point leaves either the previous or the new
// manifest intact. fsyncs counts the fsync syscalls issued (temp file plus
// directory) for the store's Stats.
func writeManifestBytes(dir string, data []byte, fsyncs *atomic.Uint64) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := fsync(f, fsyncs); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: replace manifest: %w", err)
	}
	return syncDir(dir, fsyncs)
}

// readManifest loads and validates dir's manifest.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss,
// counting the fsync in fsyncs.
func syncDir(dir string, fsyncs *atomic.Uint64) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems reject fsync on directories; the rename itself is
	// still atomic there, so the error is not fatal to correctness.
	_ = fsync(d, fsyncs)
	return d.Close()
}

// fsync syncs f and counts the call in fsyncs (the store's Stats.Fsyncs).
// Every fsync the store issues goes through it.
func fsync(f *os.File, fsyncs *atomic.Uint64) error {
	fsyncs.Add(1)
	return f.Sync()
}
