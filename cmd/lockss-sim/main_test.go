package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesSurviveAFailedRun: a run that fails (here on an unknown
// scenario) still flushes -cpuprofile and -memprofile, each a non-empty
// gzip-compressed profile.
func TestProfilesSurviveAFailedRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if code := run([]string{"-scenario", "no-such-scenario", "-cpuprofile", cpu, "-memprofile", mem}); code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
			t.Errorf("%s: %d bytes of profile, %v", filepath.Base(path), n, err)
		}
	}
}
