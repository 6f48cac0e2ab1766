package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"lockss/internal/admin"
	"lockss/internal/content"
	"lockss/internal/node"
	"lockss/internal/promtext"
	"lockss/internal/telemetry"
)

// auditShape is the operator's cluster: eight nodes, each with a durable
// store of 4 AUs x 4 MiB in 64 KiB blocks, polling every two seconds.
func auditShape(rc *runCtx) clusterShape {
	s := clusterShape{
		nodes: 8, aus: 4, auSize: 4 << 20, blockSize: 64 << 10,
		quorum: 3, inner: 5, interval: 2 * time.Second, scrubPace: 5 * time.Millisecond,
	}
	if rc.scale < 1 {
		s.aus, s.auSize, s.interval = 2, 512<<10, time.Second
	}
	return s
}

// rotEvery is the injected fault rate: one silently rotted block per 200 ms.
const rotEvery = 200 * time.Millisecond

// rotTargets is every (node, AU, block) of the cluster in a seeded random
// order; the injector walks it, so no block is rotted twice.
func rotTargets(shape clusterShape, seed uint64) []rotKey {
	var keys []rotKey
	for n := 0; n < shape.nodes; n++ {
		for a := 0; a < shape.aus; a++ {
			spec := shape.auSpec(a)
			for b := 0; b < spec.Blocks(); b++ {
				keys = append(keys, rotKey{node: c2id(n), au: spec.ID, block: b})
			}
		}
	}
	rnd := rand.New(rand.NewSource(int64(seed)))
	rnd.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// bodyWriter is the http.ResponseWriter the scrape probe serves /metrics to.
type bodyWriter struct {
	hdr  http.Header
	body bytes.Buffer
}

func (w *bodyWriter) Header() http.Header         { return w.hdr }
func (w *bodyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *bodyWriter) WriteHeader(int)             {}

// scrapeStats is what the scrapes of one run cost, one entry per scrape.
type scrapeStats struct {
	ms, bytes, parseUs []float64
	parseErr           error
}

// scrapeSampler serves one live node's /metrics to a recorder every two
// seconds, as a monitoring system would, and times the handler and the
// parse of what it wrote. Traced runs only: scraping costs CPU the
// end-to-end numbers must not carry.
func scrapeSampler(rc *runCtx, n *node.Node, stop <-chan struct{}) <-chan scrapeStats {
	out := make(chan scrapeStats, 1)
	go func() {
		var st scrapeStats
		h := admin.New(n, admin.Options{}).Handler()
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- st
				return
			case <-tick.C:
			}
			req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
			if err != nil {
				continue
			}
			w := &bodyWriter{hdr: http.Header{}}
			span := rc.rec.start(0, "admin.metrics")
			start := time.Now()
			h.ServeHTTP(w, req)
			st.ms = append(st.ms, float64(time.Since(start).Nanoseconds())/1e6)
			rc.rec.end(span)
			st.bytes = append(st.bytes, float64(w.body.Len()))
			span = rc.rec.start(0, "promtext.Parse")
			start = time.Now()
			if _, err := promtext.Parse(w.body.String()); err != nil {
				st.parseErr = err
			}
			st.parseUs = append(st.parseUs, float64(time.Since(start).Nanoseconds())/1e3)
			rc.rec.end(span)
		}
	}()
	return out
}

// runClusterAudit is the operator's end: a closed loop (the protocol clocks
// itself: nodes x AUs polls per interval) in which the generator rots one
// block every 200 ms and the cluster must find and repair each.
func runClusterAudit(rc *runCtx) error {
	shape := auditShape(rc)
	c, err := buildClusterTimed(rc, shape, "audit")
	if err != nil {
		return err
	}
	defer c.stop()

	time.Sleep(shape.interval) // warm-up: sessions open, first polls under way

	stopSamplers := make(chan struct{})
	var rttCh <-chan []float64
	var scrapeCh <-chan scrapeStats
	if rc.traced() {
		rttCh = inspectSampler(c.nodes[0], stopSamplers)
		scrapeCh = scrapeSampler(rc, c.nodes[1], stopSamplers)
	}

	// The window: one injector, on the bench clock.
	targets := rotTargets(shape, rc.seed)
	before := c.counts()
	c.obs.phase.Store(phaseQuiet)
	window := startWatch()
	injected, injectErrs := 0, 0
	for k := 0; k < len(targets); k++ {
		due := window.t0.Add(time.Duration(k) * rotEvery)
		if due.Sub(window.t0).Seconds() >= rc.seconds {
			break
		}
		time.Sleep(time.Until(due))
		key := targets[k]
		span := rc.rec.start(0, "bench.rot-to-repair")
		var err error
		rc.rec.do(span, "store.InjectDamage", func() {
			err = c.stores[int(key.node)-1].InjectDamage(key.au, key.block)
		})
		if err != nil {
			injectErrs++
			rc.res.violate("inject %+v: %v", key, err)
			continue
		}
		c.obs.injected(key, span)
		injected++
	}
	time.Sleep(time.Until(window.t0.Add(time.Duration(rc.seconds * float64(time.Second)))))
	cpu, wall := window.cpu(), window.wall()
	c.obs.phase.Store(phaseDrain)
	after := c.counts()

	// Drain: the last injections heal within an interval or two; one whose
	// poll falls short of quorum waits for the next, so allow five.
	deadline := time.Now().Add(5 * shape.interval)
	for c.obs.unrepaired() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	close(stopSamplers)
	heap := liveHeapMedian()
	runtime.KeepAlive(c)

	c.obs.mu.Lock()
	ok, bad := c.obs.pollsOK[phaseQuiet], c.obs.pollsBad[phaseQuiet]
	repairs := append([]float64(nil), c.obs.repairSec...)
	for k, v := range c.obs.outcomes {
		rc.note("polls_"+k, float64(v))
	}
	c.obs.mu.Unlock()
	unrepaired := c.obs.unrepaired()

	var rtts []float64
	var scrapes scrapeStats
	if rc.traced() {
		rtts, scrapes = <-rttCh, <-scrapeCh
	}
	solicit := c.mergedHistogram(func(t *telemetry.Telemetry) *telemetry.Histogram { return &t.SolicitToVote })
	pollDur := c.mergedHistogram(func(t *telemetry.Telemetry) *telemetry.Histogram { return &t.PollDuration })
	tally := c.mergedHistogram(func(t *telemetry.Telemetry) *telemetry.Histogram { return &t.TallyTime })
	repairH := c.mergedHistogram(func(t *telemetry.Telemetry) *telemetry.Histogram { return &t.RepairTime })

	// Every store is closed by its node, then reopened and verified.
	c.stop()
	if err := c.verifyStores(rc); err != nil {
		return err
	}
	if unrepaired > 0 {
		rc.res.violate("%d of %d injected blocks were never repaired", unrepaired, injected)
	}
	if ok == 0 || len(repairs) == 0 {
		rc.res.violate("no poll succeeded (%d) or no repair landed (%d) in the window", ok, len(repairs))
		return nil
	}

	// The benchmark's operations are its injections: each must be repaired.
	// Polls are the cluster's own and are gated by checkPolls.
	rc.ops(injected+injectErrs, unrepaired+injectErrs)
	checkPolls(rc, ok, bad)
	t := summarise(repairs)
	rc.note("polls_ok", float64(ok))
	rc.note("polls_not_ok", float64(bad))
	rc.note("injections", float64(injected))
	rc.note("window_s", wall)
	rc.note("cpu_cores_busy", cpu/wall)
	rc.e2e("work_per_s", float64(ok)/wall, ok)
	rc.e2e("cpu_us_per_unit", cpu*1e6/float64(ok), ok)
	rc.e2e("latency_mean_ms", mean(repairs)*1e3, t.N)
	rc.e2e("live_heap_mb", heap/1e6, 9)
	rc.named("cpu_ms_per_poll", cpu*1e3/float64(ok), ok)
	rc.named("rot_repair_p50_s", t.P50, t.N)
	if t.TailPct > 50 {
		rc.named(fmt.Sprintf("rot_repair_p%d_s", t.TailPct), t.Tail, t.N)
	}
	rc.named("poll_fail_ratio", float64(bad+unrepaired)/float64(ok+bad+injected), ok+bad+injected)

	if rc.traced() {
		c.layerMetrics(rc, before, after, rtts)
		rc.layer("telemetry.poll_duration_p50_s", pollDur.Quantile(0.5))
		rc.layer("telemetry.solicit_vote_p50_ms", solicit.Quantile(0.5)*1e3)
		rc.layer("telemetry.tally_p50_ms", tally.Quantile(0.5)*1e3)
		rc.layer("telemetry.repair_p50_ms", repairH.Quantile(0.5)*1e3)
		if scrapes.parseErr != nil {
			rc.res.violate("/metrics does not parse: %v", scrapes.parseErr)
		}
		if len(scrapes.ms) > 0 {
			rc.layer("admin.metrics_scrape_ms", median(scrapes.ms))
			rc.layer("admin.metrics_bytes", median(scrapes.bytes))
			rc.layer("promtext.parse_us_per_scrape", median(scrapes.parseUs))
		}
		probeEffort(rc)
		probeContent(rc, content.AUSpec{ID: 1, Name: "probe", Size: shape.auSize, BlockSize: shape.blockSize})
		probeWireVote(rc, shape)
		probeSession(rc)
	}
	return nil
}
