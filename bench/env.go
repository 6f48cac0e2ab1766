package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envBlock records where a result was measured; two results from different
// hosts are not comparable, and this is how a reader finds out.
type envBlock struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	// TempFS is the filesystem type under the temp stores. They live under
	// bench/out/, inside the checkout, because the benchmark may write
	// nowhere else.
	TempFS string `json:"temp_fs"`
	// FloodMaxLatenessMs is how late the open-loop flood generator ran at
	// worst; zero on workloads without one.
	FloodMaxLatenessMs float64 `json:"flood_max_lateness_ms"`
}

func readEnv(root, tmp string) envBlock {
	e := envBlock{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     gitCommit(root),
		TempFS:     fsType(tmp),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// gitCommit reads the checked-out commit straight from .git, without
// running git: the driver's checkout is not a repository, and there the
// answer is "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// fsMagic names the filesystems a sandbox is likely to put a checkout on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// cpuSeconds is the process's CPU time so far, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap forces a collection and returns the bytes still reachable.
// Callers keep the structures they want counted alive across the call.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// liveHeapMedian is liveHeap for a running cluster, whose reachable bytes
// move with the messages in flight: the median of nine collections 50 ms
// apart.
func liveHeapMedian() float64 {
	samples := make([]float64, 9)
	for i := range samples {
		samples[i] = float64(liveHeap())
		time.Sleep(50 * time.Millisecond)
	}
	return median(samples)
}

// stopwatch pairs wall and CPU time over one measured interval.
type stopwatch struct {
	t0   time.Time
	cpu0 float64
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), cpu0: cpuSeconds()} }

func (s stopwatch) wall() float64 { return time.Since(s.t0).Seconds() }
func (s stopwatch) cpu() float64  { return cpuSeconds() - s.cpu0 }
