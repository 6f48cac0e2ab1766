package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"lockss/internal/content"
	"lockss/internal/store"
)

// archiveShape sizes the store-only workload: two stores of eight 32 MiB
// AUs in 64 KiB blocks.
type archiveShape struct {
	aus       int
	auSize    int64
	blockSize int64
	rot       int // blocks of store A rotted before the scrub
	passes    int // scrub passes timed
	sweeps    int // vote-hash sweeps over store A
}

func archiveShapeFor(rc *runCtx) archiveShape {
	s := archiveShape{aus: 8, auSize: 32 << 20, blockSize: 64 << 10, rot: 256, passes: 10, sweeps: 10}
	if rc.scale < 1 {
		s = archiveShape{aus: 4, auSize: 4 << 20, blockSize: 64 << 10, rot: 32, passes: 5, sweeps: 3}
	}
	return s
}

func (s archiveShape) spec(i int) content.AUSpec {
	return content.AUSpec{ID: content.AUID(i + 1), Name: fmt.Sprintf("archive-%d", i+1), Size: s.auSize, BlockSize: s.blockSize}
}

func (s archiveShape) bytes() int64 { return int64(s.aus) * s.auSize }

// ingest fills a fresh store at dir with the shape's AUs, all read from buf.
func (s archiveShape) ingest(rc *runCtx, parent int, dir string, buf []byte, salt uint64) (*store.Store, error) {
	var st *store.Store
	var err error
	rc.rec.do(parent, "store.Open", func() { st, err = store.Open(dir) })
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.aus; i++ {
		rc.rec.do(parent, "store.CreateFrom", func() {
			_, err = st.CreateFrom(s.spec(i), salt+uint64(i), bytes.NewReader(buf))
		})
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// scrubPasses runs an unpaced scrub over st until n passes have completed
// and returns their durations in seconds.
func scrubPasses(rc *runCtx, st *store.Store, workers, n int) []float64 {
	passes := make(chan time.Duration, n)
	span := rc.rec.start(0, "store.Scrub")
	st.StartScrub(store.ScrubConfig{
		Pace:    -1,
		Workers: workers,
		OnPass: func(d time.Duration) {
			select {
			case passes <- d:
			default: // passes beyond n, completed before StopScrub lands
			}
		},
	})
	out := make([]float64, 0, n)
	for len(out) < n {
		out = append(out, (<-passes).Seconds())
	}
	st.StopScrub()
	rc.rec.end(span)
	return out
}

// runStoreArchive drives the store alone: fsync-bound ingest and repair
// beside read/hash-bound vote hashing and scrubbing.
func runStoreArchive(rc *runCtx) error {
	shape := archiveShapeFor(rc)
	workers := runtime.NumCPU()

	// Set-up is generating the content, which ingest then only reads.
	var buf []byte
	for i := 0; i < 3; i++ {
		sw := startWatch()
		rc.rec.do(0, "bench.generate", func() {
			buf = make([]byte, shape.auSize)
			rand.New(rand.NewSource(int64(rc.seed))).Read(buf)
		})
		rc.setup(sw.wall())
	}

	attempted, failed := 0, 0
	step := func(err error, what string) bool {
		attempted++
		if err != nil {
			failed++
			rc.res.violate("%s: %v", what, err)
			return false
		}
		return true
	}

	// Ingest: both stores into fresh directories, three times over; the last
	// pair is kept. Three and no more, however short they are: every
	// repetition puts half a gigabyte through fsync, and on a sandbox the
	// host is still writing that back — and stealing CPU to do it — while
	// the next run, of whatever workload, is being measured. The rate
	// reported is the best repetition's: the page cache absorbs some
	// repetitions whole (about 700 MB/s on the reference box) and writeback
	// throttling stalls others (about 250 MB/s), so the median lands between
	// two regimes of the host and says nothing about the store's code, while
	// the fastest repetition is the one the host disturbed least.
	var a, b *store.Store
	var dirA string
	closeBoth := func() {
		if a != nil {
			a.Close()
		}
		if b != nil {
			b.Close()
		}
	}
	defer func() { closeBoth() }()
	var ingestRates []float64
	var ingestFsyncs float64
	for rep := 0; rep < rc.scaled(3, 1); rep++ {
		closeBoth()
		a, b = nil, nil
		if rep > 0 {
			// Only one repetition's bytes are ever on disk.
			os.RemoveAll(filepath.Join(rc.tmp, fmt.Sprintf("rep%d", rep-1)))
		}
		dirA = filepath.Join(rc.tmp, fmt.Sprintf("rep%d", rep), "a")
		span := rc.rec.start(0, "bench.ingest")
		sw := startWatch()
		var errA, errB error
		a, errA = shape.ingest(rc, span, dirA, buf, rc.seed<<16)
		b, errB = shape.ingest(rc, span, filepath.Join(rc.tmp, fmt.Sprintf("rep%d", rep), "b"), buf, rc.seed<<16|1<<8)
		wall := sw.wall()
		rc.rec.end(span)
		if !step(errA, "ingest A") || !step(errB, "ingest B") {
			return nil
		}
		ingestRates = append(ingestRates, 2*float64(shape.bytes())/1e6/wall)
		ingestFsyncs = float64(a.Stats().Fsyncs) / float64(shape.aus)
	}

	// Vote hashing: whole-AU sweeps over A, as a voter does once per poll.
	nonce := []byte("bench-nonce")
	hashed := 0.0
	hashWatch := startWatch()
	for i := 0; i < shape.sweeps; i++ {
		for _, r := range a.Replicas() {
			rc.rec.do(0, "store.VoteHashes", func() { r.VoteHashes(nonce) })
			hashed += float64(shape.auSize)
		}
	}
	voteWall, readCPU := hashWatch.wall(), hashWatch.cpu()

	// Rot, then scrub unpaced: the first pass finds and marks the damage.
	rnd := rand.New(rand.NewSource(int64(rc.seed) + 1))
	perAU := int(shape.auSize / shape.blockSize)
	for _, idx := range rnd.Perm(shape.aus * perAU)[:shape.rot] {
		step(a.InjectDamage(content.AUID(idx/perAU+1), idx%perAU), "inject")
	}
	marksBefore := a.Stats()
	scrubWatch := startWatch()
	passes := scrubPasses(rc, a, workers, shape.passes)
	readCPU += scrubWatch.cpu()
	hashed += float64(shape.passes) * float64(shape.bytes())
	marksAfter := a.Stats()
	steady := passes[2:] // the first pass marks, the second may still be committing
	sort.Float64s(steady)

	// Repair every marked block of A from B.
	var repairMs []float64
	repairFsyncs := a.Stats().Fsyncs
	for _, r := range a.Replicas() {
		src := b.Replica(r.Spec().ID)
		for _, d := range r.Snapshot() {
			span := rc.rec.start(0, "bench.repair")
			start := time.Now()
			var data []byte
			var err error
			rc.rec.do(span, "store.RepairBlock", func() { data, err = src.RepairBlock(d.Block) })
			if err == nil {
				rc.rec.do(span, "store.ApplyRepair", func() { err = r.ApplyRepair(d.Block, data) })
			}
			rc.rec.end(span)
			if step(err, "repair") {
				repairMs = append(repairMs, float64(time.Since(start).Nanoseconds())/1e6)
			}
		}
	}
	repairFsyncs = a.Stats().Fsyncs - repairFsyncs
	if len(repairMs) != shape.rot {
		rc.res.violate("scrub marked %d blocks, %d were rotted", len(repairMs), shape.rot)
	}

	heap := liveHeap()
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)

	// Close, reopen, verify: nothing may be damaged at the end.
	errA, errB := a.Close(), b.Close()
	a, b = nil, nil
	step(errA, "close A")
	step(errB, "close B")
	reopen := startWatch()
	var damage []store.Damage
	re, err := store.Open(dirA)
	if step(err, "reopen A") {
		rc.rec.do(0, "store.VerifyAll", func() { damage = re.VerifyAll() })
		step(re.Close(), "close reopened A")
	}
	reopenWall := reopen.wall()
	if len(damage) > 0 {
		rc.res.violate("%d blocks still damaged after repair", len(damage))
	}

	rc.ops(attempted, failed)
	scrubRate := float64(shape.bytes()) / 1e6 / quantile(steady, 0.5)
	rc.note("ingest_repetitions", float64(len(ingestRates)))
	rc.note("archive_mb", float64(shape.bytes())/1e6)
	rc.note("repairs", float64(len(repairMs)))
	rc.e2e("work_per_s", slices.Max(ingestRates), len(ingestRates))
	rc.e2e("cpu_us_per_unit", readCPU*1e6/(hashed/1e6), int(hashed/1e6))
	rc.e2e("latency_mean_ms", mean(steady)*1e3, len(steady))
	rc.e2e("live_heap_mb", float64(heap)/1e6, 1)
	rc.named("ingest_mb_per_s", slices.Max(ingestRates), len(ingestRates))
	rc.named("scrub_mb_per_s", scrubRate, len(steady))
	rc.named("vote_hash_mb_per_s", float64(shape.sweeps)*float64(shape.bytes())/1e6/voteWall, shape.sweeps)

	if rc.traced() {
		if len(repairMs) > 0 {
			sort.Float64s(repairMs)
			rc.layer("store.repair_apply_p50_ms", quantile(repairMs, 0.5))
			rc.layer("store.repair_apply_p90_ms", quantile(repairMs, 0.9))
			rc.layer("store.fsyncs_per_repair", float64(repairFsyncs)/float64(len(repairMs)))
		}
		rc.layer("store.fsyncs_per_ingest_au", ingestFsyncs)
		if m := marksAfter.ManifestMutations - marksBefore.ManifestMutations; m > 0 {
			// Group commit at work: the scrub's damage marks are many
			// mutations sharing few manifest replacements.
			rc.layer("store.manifest_writes_per_mutation", float64(marksAfter.ManifestWrites-marksBefore.ManifestWrites)/float64(m))
		}
		rc.layer("store.reopen_verify_s", reopenWall)

		// One scrub worker against one per CPU, on the repaired store.
		re, err := store.Open(dirA)
		if err != nil {
			return err
		}
		many := scrubPasses(rc, re, workers, 4)[1:]
		one := scrubPasses(rc, re, 1, 4)[1:]
		if err := re.Close(); err != nil {
			return err
		}
		rc.layer("store.scrub_workers_speedup", median(one)/median(many))
		probeContent(rc, content.AUSpec{ID: 1, Name: "probe", Size: shape.auSize, BlockSize: shape.blockSize})
	}
	return nil
}
