package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
	"lockss/internal/session"
	"lockss/internal/wire"
)

// floodShape is the audit cluster with small AUs, so that loyal polls are
// cheap and what the flood costs stands out.
func floodShape(rc *runCtx) clusterShape {
	s := auditShape(rc)
	s.aus, s.auSize, s.blockSize = 2, 256<<10, 32<<10
	return s
}

const (
	floodConns      = 2      // attacker connections, to nodes 1 and 2
	floodRate       = 50_000 // junk messages per second per connection
	floodBatch      = 256    // messages per timed batch
	floodIdentities = 512    // rotating claimed identities, none known to any node
	// floodSlice is how often the flood phase samples CPU and messages
	// written; the run reports the lower quartile of the samples.
	floodSlice = 250 * time.Millisecond
)

// floodStats is what one attacker connection did.
type floodStats struct {
	sent        int
	maxLateness time.Duration
	batchMs     []float64 // due -> batch written
	err         error
}

// junkInvitation is the flood's message: a well-formed poll invitation from
// an identity nobody knows, carrying a genuine MBF proof bound to the wrong
// context, so that whatever admission control lets through costs the victim
// a verification and earns the attacker a refusal.
func junkInvitation(proof effort.Proof, voter ids.PeerID, seq uint64, now time.Time) *protocol.Msg {
	return &protocol.Msg{
		Type:         protocol.MsgPoll,
		AU:           content.AUID(1 + seq%2),
		PollID:       1<<40 | seq,
		Poller:       attackerBase + ids.PeerID(seq%floodIdentities),
		Voter:        voter,
		VoteBy:       sched.Time(now.Add(time.Second).UnixNano()),
		PollDeadline: sched.Time(now.Add(2 * time.Second).UnixNano()),
		Proof:        proof,
	}
}

// batchConn is the attacker's side of the TCP connection: writes gather in
// memory and go to the kernel once per batch, as an attacker who wants the
// most junk per CPU-second would send them. It also keeps the generator's
// own system-call cost from drowning the cost it is there to measure.
type batchConn struct {
	net.Conn
	batching bool
	buf      []byte
}

func (c *batchConn) Write(p []byte) (int, error) {
	if !c.batching {
		return c.Conn.Write(p)
	}
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *batchConn) flush() error {
	_, err := c.Conn.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

// flood drives one attacker connection open loop: batches of floodBatch
// messages on a fixed schedule, each batch timed from when it was due, not
// from when the generator got round to it.
func flood(rc *runCtx, parent int, addr string, voter ids.PeerID, proof effort.Proof, rate int, d time.Duration, written *atomic.Int64) (st floodStats) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		st.err = err
		return st
	}
	bc := &batchConn{Conn: raw}
	conn, err := session.Client(bc)
	if err != nil {
		raw.Close()
		st.err = err
		return st
	}
	defer conn.Close()
	bc.batching = true // the handshake is over; from here on, one kernel write per batch

	every := time.Duration(float64(floodBatch) / float64(rate) * float64(time.Second))
	start := time.Now()
	var buf []byte
	var seq uint64
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if due.Sub(start) >= d {
			return st
		}
		time.Sleep(time.Until(due))
		if late := time.Since(due); late > st.maxLateness {
			st.maxLateness = late
		}
		span := rc.rec.start(parent, "session.WriteMsg:batch")
		now := time.Now()
		for i := 0; i < floodBatch; i++ {
			seq++
			if buf, err = wire.AppendEncode(buf[:0], junkInvitation(proof, voter, seq, now)); err == nil {
				err = conn.WriteMsg(buf)
			}
			if err != nil {
				st.err = fmt.Errorf("after %d messages: %w", st.sent, err)
				rc.rec.end(span)
				return st
			}
			st.sent++
		}
		if err := bc.flush(); err != nil {
			st.err = fmt.Errorf("after %d messages: %w", st.sent, err)
			rc.rec.end(span)
			return st
		}
		rc.rec.end(span)
		written.Add(floodBatch)
		st.batchMs = append(st.batchMs, float64(time.Since(due).Nanoseconds())/1e6)
	}
}

// runClusterFlood is the paper's admission-control flood against the real
// stack: a quiet phase, then two attacker connections writing junk
// invitations open loop while the loyal polls go on.
func runClusterFlood(rc *runCtx) error {
	shape := floodShape(rc)
	c, err := buildClusterTimed(rc, shape, "flood")
	if err != nil {
		return err
	}
	defer c.stop()
	rate := floodRate
	if rc.scale < 1 {
		rate /= 10
	}
	proof, _ := effort.NewMBF(clusterMBF).Generate([]byte("bound to the wrong context"), 1, clusterEffortUnit)

	time.Sleep(shape.interval) // warm-up

	stopSamplers := make(chan struct{})
	var rttCh <-chan []float64
	if rc.traced() {
		rttCh = inspectSampler(c.nodes[0], stopSamplers)
	}

	quietFor := time.Duration(rc.seconds / 4 * float64(time.Second))
	floodFor := time.Duration(rc.seconds * 3 / 4 * float64(time.Second))

	c.obs.phase.Store(phaseQuiet)
	quiet := startWatch()
	time.Sleep(quietFor)
	quietCPU, quietWall := quiet.cpu(), quiet.wall()

	before := c.counts()
	c.obs.phase.Store(phaseFlood)
	floodSpan := rc.rec.start(0, "bench.flood")
	fl := startWatch()
	stats := make([]floodStats, floodConns)
	var written atomic.Int64
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := c.nodes[i]
			stats[i] = flood(rc, floodSpan, n.Addr().String(), n.ID(), proof, rate, floodFor, &written)
		}()
	}
	flooded := make(chan struct{})
	go func() { wg.Wait(); close(flooded) }()
	// The process's CPU per junk message, one sample per floodSlice. The run
	// reports their lower quartile: what a shared host adds (stolen time, a
	// neighbour in the cache) only ever adds, in bursts, and a whole-phase
	// mean or a median moves with every burst while the floor stays put.
	// Ten noisy runs spread 16 % as a mean, 14 % as a median, 10 % so.
	var sliceUs []float64
	tick := time.NewTicker(floodSlice)
	for lastCPU, lastN, done := 0.0, int64(0), false; !done; {
		select {
		case <-flooded:
			done = true
		case <-tick.C:
			cpu, n := fl.cpu(), written.Load()
			if n > lastN {
				sliceUs = append(sliceUs, (cpu-lastCPU)*1e6/float64(n-lastN))
			}
			lastCPU, lastN = cpu, n
		}
	}
	tick.Stop()
	floodCPU, floodWall := fl.cpu(), fl.wall()
	rc.rec.end(floodSpan)
	c.obs.phase.Store(phaseDrain)
	after := c.counts()
	close(stopSamplers)
	heap := liveHeapMedian()
	runtime.KeepAlive(c)

	var rtts []float64
	if rc.traced() {
		rtts = <-rttCh
	}
	c.obs.mu.Lock()
	okQ, badQ := c.obs.pollsOK[phaseQuiet], c.obs.pollsBad[phaseQuiet]
	okF, badF := c.obs.pollsOK[phaseFlood], c.obs.pollsBad[phaseFlood]
	pollSecs := append([]float64(nil), c.obs.pollSecs[phaseFlood]...)
	for k, v := range c.obs.outcomes {
		rc.note("polls_"+k, float64(v))
	}
	c.obs.mu.Unlock()

	c.stop()
	if err := c.verifyStores(rc); err != nil {
		return err
	}

	sent := 0
	var lateness time.Duration
	var batchMs []float64
	for i, st := range stats {
		if st.err != nil {
			rc.res.violate("attacker connection %d: %v", i, st.err)
		}
		sent += st.sent
		lateness = max(lateness, st.maxLateness)
		batchMs = append(batchMs, st.batchMs...)
	}
	rc.res.Env.FloodMaxLatenessMs = float64(lateness.Nanoseconds()) / 1e6
	if v := c.obs.votesToAttackers.Load(); v > 0 {
		rc.res.violate("%d votes were supplied to flood identities", v)
	}
	if sent == 0 || okF == 0 || okQ == 0 {
		rc.res.violate("nothing to measure: %d junk messages sent, %d/%d loyal polls succeeded in the quiet/flood phase", sent, okQ, okF)
		return nil
	}

	// What the flood costs: CPU rate with it minus CPU rate without it, per
	// junk message written. The attacker's own encode and seal are in it;
	// they are this repository's code too.
	perMsg := (floodCPU/floodWall - quietCPU/quietWall) / (float64(sent) / floodWall) * 1e6

	// The benchmark's operations are the batches it writes; none may fail.
	// Loyal polls are the cluster's own and are gated by checkPolls.
	failedBatches := 0
	for _, st := range stats {
		if st.err != nil {
			failedBatches++
		}
	}
	rc.ops(len(batchMs)+failedBatches, failedBatches)
	checkPolls(rc, okQ+okF, badQ+badF)
	rc.note("junk_sent", float64(sent))
	rc.note("junk_per_s", float64(sent)/floodWall)
	rc.note("flood_batch_p50_ms", median(batchMs))
	rc.note("loyal_polls_ok_flood", float64(okF))
	rc.note("loyal_polls_not_ok_flood", float64(badF))
	rc.note("cpu_cores_busy_quiet", quietCPU/quietWall)
	rc.note("cpu_cores_busy_flood", floodCPU/floodWall)
	rc.e2e("work_per_s", float64(okF)/floodWall, okF)
	sort.Float64s(sliceUs)
	rc.e2e("cpu_us_per_unit", quantile(sliceUs, 0.25), len(sliceUs))
	rc.note("cpu_us_per_junk_whole_phase", floodCPU*1e6/float64(sent))
	rc.note("cpu_us_per_junk_slice_p50", quantile(sliceUs, 0.5))
	rc.e2e("latency_mean_ms", mean(pollSecs)*1e3, len(pollSecs))
	rc.e2e("live_heap_mb", heap/1e6, 9)
	rc.named("flood_cpu_us_per_msg", perMsg, sent)
	rc.named("poll_fail_ratio", float64(badF)/float64(okF+badF), okF+badF)

	if rc.traced() {
		c.layerMetrics(rc, before, after, rtts)
		if junk := c.tap.junk.Load(); junk > 0 {
			// Loyal invitations are in "considered" too, but three orders
			// of magnitude rarer than the junk.
			considered := after.peer.InvitesConsidered - before.peer.InvitesConsidered
			rc.layer("protocol.junk_admitted_ratio", float64(considered)/float64(junk))
		}
		// The paper's coefficient of friction in wall-clock terms: what a
		// successful loyal poll costs the cluster under flood over what it
		// costs in peace.
		rc.layer("protocol.friction_cpu_ratio", (floodCPU/float64(okF))/(quietCPU/float64(okQ)))
		frame, err := wire.Encode(junkInvitation(proof, 1, 1, time.Now()))
		if err != nil {
			return err
		}
		probeWirePoll(rc, frame)
		probeReputation(rc)
		probeSession(rc)
	}
	return nil
}
