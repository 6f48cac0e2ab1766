//go:build !amd64 || purego

package store

import (
	"crypto/sha256"

	"lockss/internal/content"
)

// hasSum16 is false without a sixteen-lane kernel: every run hashes block
// by block.
const hasSum16 = false

// sum16 sets out[k] to the SHA-256 digest of span[k*stride : k*stride+n]
// for each of the sixteen lanes k, one message at a time.
func sum16(span []byte, stride, n int, out *[runBlocks]content.Hash) {
	for k := range out {
		out[k] = sha256.Sum256(span[k*stride : k*stride+n])
	}
}
