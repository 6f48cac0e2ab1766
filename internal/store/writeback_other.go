//go:build !linux || arm

package store

import "os"

// startWriteback is a no-op where the kernel offers no range writeback hint:
// the fsync that commits an AU writes all of it back.
func startWriteback(*os.File, int64, int64) {}
