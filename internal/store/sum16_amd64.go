//go:build amd64 && !purego

package store

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"lockss/internal/content"
)

// hasSum16 reports whether this CPU and its OS run block16: AVX-512F and
// AVX-512BW, with the OS saving the opmask and full ZMM state (XCR0 bits 1,
// 2 and 5-7). Checked once.
var hasSum16 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if xgetbv()&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<30) != 0
}()

// sum16 sets out[k] to the SHA-256 digest of span[k*stride : k*stride+n]
// for each of the sixteen lanes k, hashing them all in lockstep through
// block16: their whole 64-byte blocks in place, then each lane's tail and
// padding from a copy. Without the kernel, or for a span the kernel's 32-bit
// lane offsets cannot reach, it hashes one message at a time.
func sum16(span []byte, stride, n int, out *[runBlocks]content.Hash) {
	end := (runBlocks-1)*stride + n
	if n < 0 || stride < 0 || end > len(span) {
		panic("store: sum16 lane outside its span")
	}
	if !hasSum16 || end > math.MaxInt32 {
		for k := range out {
			out[k] = sha256.Sum256(span[k*stride : k*stride+n])
		}
		return
	}
	h := sum16Init
	var offsets [runBlocks]uint32
	for k := range offsets {
		offsets[k] = uint32(k * stride)
	}
	whole := n / 64
	if whole > 0 {
		block16(&h, &span[0], &offsets, whole)
	}
	// The tail: what is left of each message, 0x80, zeros, and the message
	// length in bits, in one 64-byte block, or two when fewer than nine
	// bytes are left for the 0x80 and the length.
	var tails [runBlocks][128]byte
	rem := n - whole*64
	last := 64
	if rem >= 56 {
		last = 128
	}
	for k := range tails {
		t := tails[k][:last]
		copy(t, span[k*stride+whole*64:k*stride+n])
		t[rem] = 0x80
		binary.BigEndian.PutUint64(t[last-8:], uint64(n)<<3)
		offsets[k] = uint32(k * len(tails[k]))
	}
	block16(&h, &tails[0][0], &offsets, last/64)
	for k := range out {
		for j := range h {
			binary.BigEndian.PutUint32(out[k][4*j:], h[j][k])
		}
	}
}

// sum16Init is SHA-256's initial chaining value in every lane.
var sum16Init = func() (h [8][runBlocks]uint32) {
	for j, v := range [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {
		for k := range h[j] {
			h[j][k] = v
		}
	}
	return h
}()

// block16 is in sum16_amd64.s.
//
//go:noescape
func block16(h *[8][runBlocks]uint32, base *byte, offsets *[runBlocks]uint32, blocks int)

// cpuid and xgetbv are the CPUID and XGETBV (XCR0) instructions.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)
