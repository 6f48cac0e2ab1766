//go:build linux || darwin

package store

import (
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only and shared, so writes
// through f show through the mapping. It returns nil when the file cannot be
// mapped (size 0, larger than the address space, ENOMEM, vm.max_map_count);
// the replica then reads by copying.
func mapFile(f *os.File, size int64) []byte {
	if size <= 0 || int64(int(size)) != size {
		return nil
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	return m
}

// unmapFile releases a mapping from mapFile.
func unmapFile(m []byte) error { return syscall.Munmap(m) }

// fileSize is f's current size from one fstat, without the allocation
// f.Stat makes.
func fileSize(f *os.File) (int64, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return 0, err
	}
	return st.Size, nil
}
