package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lockss/internal/experiment"
	"lockss/internal/world"
)

// largeWorld is the sim-large population: the ScaleLarge shape (about 5k
// peers, attack-free), seeded from the run's seed.
func largeWorld(rc *runCtx) world.Config {
	cfg := experiment.Options{Scale: experiment.ScaleLarge, BaseSeed: rc.seed - 1}.BaseWorld()
	cfg.Peers = rc.scaled(cfg.Peers, 100)
	cfg.Shards = 1
	return cfg
}

// worldPrint is every observable of a finished run, floats as bit patterns:
// a sharded run must match the single-engine run exactly, not approximately.
type worldPrint struct {
	events, succPolls, totalPolls, votes, alarms, damage, repairs uint64
	accessFail, defEffort, advEffort                              uint64
	netSent, netDelivered, netDropped, netBytes                   uint64
	damagedNow                                                    int
}

func printOf(w *world.World) worldPrint {
	return worldPrint{
		events:       w.EventsExecuted(),
		succPolls:    w.Metrics.SuccessfulPolls(),
		totalPolls:   w.Metrics.TotalPolls(),
		votes:        w.Metrics.VotesSupplied,
		alarms:       w.Metrics.Alarms,
		damage:       w.Metrics.DamageEvents,
		repairs:      w.Metrics.RepairsFixed,
		accessFail:   math.Float64bits(w.Metrics.AccessFailureProbability()),
		defEffort:    math.Float64bits(float64(w.DefenderEffort())),
		advEffort:    math.Float64bits(float64(w.AdversaryLedger.Total)),
		netSent:      w.Net.Sent,
		netDelivered: w.Net.Delivered,
		netDropped:   w.Net.DroppedStoppage,
		netBytes:     w.Net.BytesDelivered,
		damagedNow:   w.Metrics.DamagedNow(),
	}
}

// goldenLargeCounts reads the polls-ok and alarms columns out of the
// scale-large-baseline golden.
func goldenLargeCounts(root string) (polls, alarms uint64, err error) {
	data, err := os.ReadFile(goldenPath(root, "scale-large-baseline"))
	if err != nil {
		return 0, 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	f := strings.Fields(lines[len(lines)-1])
	if len(f) != 4 {
		return 0, 0, fmt.Errorf("scale-large-baseline golden: want 4 columns, got %q", lines[len(lines)-1])
	}
	if polls, err = strconv.ParseUint(f[2], 10, 64); err != nil {
		return 0, 0, err
	}
	alarms, err = strconv.ParseUint(f[3], 10, 64)
	return polls, alarms, err
}

// sampleHeapInuse runs f while sampling HeapInuse every 5 ms and returns the
// peak seen.
func sampleHeapInuse(f func()) uint64 {
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapInuse > peak.Load() {
				peak.Store(m.HeapInuse)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(stop)
	<-done
	return peak.Load()
}

// runSimLarge is the simulator used the other way: one huge attack-free
// population on a single engine, repeated while another repetition fits.
func runSimLarge(rc *runCtx) error {
	cfg := largeWorld(rc)

	// The measured repetitions each build their own world; a few extra
	// builds up front steady the set-up median at little cost.
	for i := 0; i < 5; i++ {
		sw := startWatch()
		if _, err := world.New(cfg); err != nil {
			return err
		}
		rc.setup(sw.wall())
	}
	baseline := liveHeap()

	var runWalls, rates, heaps []float64
	var cpu, wall float64
	var events uint64
	var first worldPrint
	var peak uint64
	reps := 0
	// Whole repetitions, as many as fit in the time allowed and at least one.
	for reps == 0 || wall+wall/float64(reps) <= rc.seconds {
		var w *world.World
		var err error
		sw := startWatch()
		rc.rec.do(0, "world.New", func() { w, err = world.New(cfg) })
		if err != nil {
			return err
		}
		rc.setup(sw.wall())

		sw = startWatch()
		run := func() { rc.rec.do(0, "world.Run", w.Run) }
		if rc.traced() && reps == 0 {
			peak = sampleHeapInuse(run)
		} else {
			run()
		}
		rw := sw.wall()
		cpu += sw.cpu()
		wall += rw
		runWalls = append(runWalls, rw)

		fp := printOf(w)
		if reps == 0 {
			first = fp
		} else if fp != first {
			rc.res.violate("repetition %d differs from the first: %+v vs %+v", reps, fp, first)
		}
		events += fp.events
		rates = append(rates, float64(fp.events)/rw)
		heaps = append(heaps, float64(liveHeap())-float64(baseline))
		runtime.KeepAlive(w)
		reps++
	}

	if rc.seed == 1 && rc.scale == 1 {
		polls, alarms, err := goldenLargeCounts(rc.root)
		if err != nil {
			return err
		}
		if first.succPolls != polls || first.alarms != alarms {
			rc.res.violate("polls-ok/alarms %d/%d, golden says %d/%d", first.succPolls, first.alarms, polls, alarms)
		}
	}

	rc.ops(reps, 0)
	rc.note("repetitions", float64(reps))
	rc.note("peers", float64(cfg.Peers))
	rc.note("events_per_run", float64(first.events))
	rc.e2e("work_per_s", median(rates), reps)
	rc.e2e("cpu_us_per_unit", cpu*1e6/float64(events), reps)
	rc.e2e("latency_mean_ms", mean(runWalls)*1e3, reps)
	rc.e2e("live_heap_mb", median(heaps)/1e6, reps)
	rc.named("sim_events_per_s", median(rates), reps)
	rc.named("heap_bytes_per_peer", median(heaps)/float64(cfg.Peers), reps)

	if rc.traced() {
		rc.layer("world.build_s", median(rc.setups))
		rc.layer("world.run_s", median(runWalls))
		rc.layer("world.peak_heap_bytes", float64(peak))
		rc.layer("world.heap_bytes_per_peer", median(heaps)/float64(cfg.Peers))
		rc.layer("sim.events_executed", float64(first.events))

		// The sharded rerun: the number ROADMAP item 2's decision rule reads.
		sharded := cfg
		sharded.Shards = min(runtime.NumCPU(), 4)
		rc.note("shards", float64(sharded.Shards))
		w, err := world.New(sharded)
		if err != nil {
			return err
		}
		sw := startWatch()
		rc.rec.do(0, "world.Run:sharded", w.Run)
		shardedRate := float64(w.EventsExecuted()) / sw.wall()
		if fp := printOf(w); fp != first {
			rc.res.violate("run at %d shards differs from the single-engine run: %+v vs %+v", sharded.Shards, fp, first)
		}
		rc.layer("sim.shards_speedup", shardedRate/median(rates))

		probeEngine(rc)
		probePollRound(rc)
		probeTelemetry(rc)
	}
	return nil
}
