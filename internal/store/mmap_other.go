//go:build !linux && !darwin

package store

import "os"

// mapFile maps nothing where the store has no mapping: every replica reads
// by copying.
func mapFile(*os.File, int64) []byte { return nil }

// unmapFile is never reached without a mapping.
func unmapFile([]byte) error { return nil }

// fileSize is f's current size.
func fileSize(f *os.File) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
