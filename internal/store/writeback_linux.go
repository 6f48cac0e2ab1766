//go:build linux && !arm

package store

import (
	"os"
	"syscall"
)

// startWriteback asks the kernel to start writing f's dirty pages in
// [off, off+n) back to disk without waiting for them (SYNC_FILE_RANGE_WRITE).
// It is only a hint: f.Sync stays the durability point, so its error is
// ignored. linux/arm has no syscall.SyncFileRange and takes the no-op.
func startWriteback(f *os.File, off, n int64) {
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, 2 /* SYNC_FILE_RANGE_WRITE */)
}
