package main

import (
	"net"
	"runtime"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/experiment"
	"lockss/internal/ids"
	"lockss/internal/netsim"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/session"
	"lockss/internal/sim"
	"lockss/internal/telemetry"
	"lockss/internal/wire"
	"lockss/internal/world"
)

// Probes are direct timed calls into one layer's public functions, at fixed
// iteration counts, with inputs shaped like the workload whose traced run
// makes them. They run after the workload's measured part, so they never
// share the CPU with it.

// perOp runs fn iters times and returns nanoseconds and heap allocations per
// call.
func perOp(iters int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// probeEngine times the event heap alone: one event scheduled and fired per
// step, the pattern a timer-driven peer produces.
func probeEngine(rc *runCtx) {
	id := rc.rec.start(0, "sim.probe")
	defer rc.rec.end(id)
	n := rc.scaled(2_000_000, 10_000)
	e := sim.NewEngine()
	fired := 0
	var chain func()
	chain = func() {
		fired++
		if fired < n {
			e.After(1, chain)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	e.After(1, chain)
	e.Run(sim.Time(int64(n) + 10))
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	rc.layer("sim.engine_ns_per_event", float64(el.Nanoseconds())/float64(n))
	rc.layer("sim.engine_allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(n))
}

// probeSimLayers times the three small layers every simulated message or
// invitation crosses: a network send, a schedule reservation, an admission
// decision.
func probeSimLayers(rc *runCtx) {
	id := rc.rec.start(0, "netsim.probe")
	eng := sim.NewEngine()
	net := netsim.New(eng)
	sink := 0
	link := netsim.Link{Bandwidth: netsim.FastEth, Latency: sim.Millisecond}
	net.AddNode(1, link, func(ids.PeerID, any, int) { sink++ })
	net.AddNode(2, link, func(ids.PeerID, any, int) { sink++ })
	n := rc.scaled(1_000_000, 10_000)
	ns, _ := perOp(n, func(i int) {
		net.Send(1, 2, i, 100)
		if i%1024 == 1023 {
			eng.Run(sim.Time(1<<62) - 1)
		}
	})
	eng.Run(sim.Time(1<<62) - 1)
	rc.layer("netsim.send_ns_per_msg", ns)
	rc.rec.end(id)

	id = rc.rec.start(0, "sched.probe")
	s := sched.New()
	ns, _ = perOp(n, func(i int) {
		tid, _, ok := s.ReserveSlot(sched.Time(i*10), 5, sched.Time(i*10+1000), "b")
		if ok && i%2 == 0 {
			s.Release(tid)
		}
		if i%100 == 99 {
			s.GC(sched.Time(i * 10))
		}
	})
	rc.layer("sched.reserve_ns_per_op", ns)
	rc.rec.end(id)

	probeReputation(rc)
}

// probeReputation times admission decisions over a thousand rotating
// identities, most of them unknown: the flood's view of the layer.
func probeReputation(rc *runCtx) {
	id := rc.rec.start(0, "reputation.probe")
	defer rc.rec.end(id)
	day := reputation.Duration(24 * 3600 * 1e9)
	l := reputation.NewList(reputation.DefaultParams(day, 90*day))
	rnd := prng.New(rc.seed)
	ns, _ := perOp(rc.scaled(1_000_000, 10_000), func(i int) {
		l.Consider(reputation.Time(i)*1000, ids.PeerID(uint32(i%1000+1)), rnd)
	})
	rc.layer("reputation.consider_ns_per_op", ns)
}

// probePollRound times one complete simulated poll round in a 25-peer world:
// the unit of work both simulator workloads multiply.
func probePollRound(rc *runCtx) {
	id := rc.rec.start(0, "protocol.probe")
	defer rc.rec.end(id)
	failed := false
	ns, allocs := perOp(rc.scaled(20, 2), func(i int) {
		cfg := experiment.Options{Scale: experiment.ScaleTiny, BaseSeed: rc.seed + uint64(i)}.BaseWorld()
		cfg.AUs = 1
		cfg.Duration = sim.Duration(cfg.Protocol.PollInterval) * 2
		cfg.DamageDiskYears = 0
		w, err := world.New(cfg)
		if err != nil {
			failed = true
			return
		}
		w.Run()
	})
	if failed {
		rc.res.violate("poll-round probe could not build its world")
	}
	rc.layer("protocol.poll_round_ms", ns/1e6)
	rc.layer("protocol.poll_round_allocs", allocs)
}

// probeTelemetry times the recorder: the bare Observe path, and the whole
// simulator with the recorder attached against without (40 peers, 10 AUs,
// two years — BENCH_10's measurement).
func probeTelemetry(rc *runCtx) {
	id := rc.rec.start(0, "telemetry.probe")
	defer rc.rec.end(id)
	var h telemetry.Histogram
	ns, _ := perOp(rc.scaled(10_000_000, 100_000), func(i int) { h.Observe(int64(i)) })
	rc.layer("telemetry.observe_ns", ns)

	cfg := experiment.Options{Scale: experiment.ScaleSmall, BaseSeed: rc.seed - 1}.BaseWorld()
	if rc.scale < 1 {
		cfg.Duration /= 10
	}
	best := func(tel bool) float64 {
		var rate float64
		for round := 0; round < 2; round++ {
			run := cfg
			if tel {
				run.Telemetry = telemetry.New()
			}
			w, err := world.New(run)
			if err != nil {
				rc.res.violate("telemetry probe: %v", err)
				return 1
			}
			start := time.Now()
			w.Run()
			rate = max(rate, float64(w.EventsExecuted())/time.Since(start).Seconds())
		}
		return rate
	}
	bare := best(false)
	rc.layer("telemetry.sim_overhead_ratio", best(true)/bare)
}

// probeEffort times proof generation and verification at the cluster's MBF
// parameters, one effort unit, as a voter's introductory check does.
func probeEffort(rc *runCtx) {
	id := rc.rec.start(0, "effort.probe")
	defer rc.rec.end(id)
	m := effort.NewMBF(clusterMBF)
	ctx := []byte("bench-effort-probe")
	n := rc.scaled(2000, 50)
	var proof *effort.MBFProof
	ns, _ := perOp(n, func(int) { proof, _ = m.Generate(ctx, 1, clusterEffortUnit) })
	rc.layer("effort.mbf_generate_us", ns/1e3)
	bad := 0
	ns, _ = perOp(n, func(int) {
		if !m.Verify(proof, ctx) {
			bad++
		}
	})
	if bad > 0 {
		rc.res.violate("MBF probe: %d genuine proofs failed to verify", bad)
	}
	rc.layer("effort.mbf_verify_us", ns/1e3)
}

// probeContent times vote hashing over an in-memory replica of the
// workload's AU shape: the hash cost with the store's reads taken out.
func probeContent(rc *runCtx, spec content.AUSpec) {
	id := rc.rec.start(0, "content.probe")
	defer rc.rec.end(id)
	r := content.NewRealReplica(spec, rc.seed)
	nonce := []byte("bench-nonce")
	r.VoteHashes(nonce) // materialise the replica's blocks before timing
	sweeps := max(2, int(float64(rc.scaled(256, 8))*float64(1<<20)/float64(spec.Size)))
	ns, _ := perOp(sweeps, func(int) { r.VoteHashes(nonce) })
	rc.layer("content.vote_hash_mb_per_s", float64(spec.Size)/1e6/(ns/1e9))
}

// probeWireVote times the codec on the message that carries the bulk of a
// poll's bytes: a hash vote for one AU of the cluster's shape.
func probeWireVote(rc *runCtx, shape clusterShape) {
	id := rc.rec.start(0, "wire.probe")
	defer rc.rec.end(id)
	spec := shape.auSpec(0)
	r := content.NewRealReplica(spec, rc.seed)
	proof, _ := effort.NewMBF(clusterMBF).Generate([]byte("vote"), 1, clusterEffortUnit)
	msg := &protocol.Msg{
		Type: protocol.MsgVote, AU: spec.ID, PollID: 7, Poller: 1, Voter: 2,
		Vote:        protocol.VoteDataOf(r, []byte("nonce")),
		Nominations: []ids.PeerID{3, 4, 5},
		Proof:       proof,
	}
	n := rc.scaled(100_000, 1000)
	var buf []byte
	failed := 0
	ns, _ := perOp(n, func(int) {
		var err error
		if buf, err = wire.AppendEncode(buf[:0], msg); err != nil {
			failed++
		}
	})
	rc.layer("wire.encode_ns_vote", ns)
	ns, allocs := perOp(n, func(int) {
		if _, err := wire.Decode(buf); err != nil {
			failed++
		}
	})
	rc.layer("wire.decode_ns_vote", ns)
	rc.layer("wire.decode_allocs_vote", allocs)
	if failed > 0 {
		rc.res.violate("wire probe: %d vote encodes or decodes failed", failed)
	}
}

// probeWirePoll times decoding the flood's junk invitation.
func probeWirePoll(rc *runCtx, frame []byte) {
	id := rc.rec.start(0, "wire.probe")
	defer rc.rec.end(id)
	failed := 0
	ns, _ := perOp(rc.scaled(500_000, 5000), func(int) {
		if _, err := wire.Decode(frame); err != nil {
			failed++
		}
	})
	if failed > 0 {
		rc.res.violate("wire probe: %d junk invitations failed to decode", failed)
	}
	rc.layer("wire.decode_ns_poll", ns)
}

// probeSession times the encrypted framing over a loopback TCP pair: the
// handshake, a 100-byte message written and read, and 64 KiB frames in bulk.
func probeSession(rc *runCtx) {
	id := rc.rec.start(0, "session.probe")
	defer rc.rec.end(id)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rc.res.violate("session probe: %v", err)
		return
	}
	defer l.Close()

	// pair opens one session each way round; the server half is handed back
	// once its handshake completes.
	pair := func() (cli, srv *session.Conn, err error) {
		type accepted struct {
			c   *session.Conn
			err error
		}
		ch := make(chan accepted, 1)
		go func() {
			raw, err := l.Accept()
			if err != nil {
				ch <- accepted{nil, err}
				return
			}
			c, err := session.Server(raw)
			if err != nil {
				raw.Close()
			}
			ch <- accepted{c, err}
		}()
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		cli, err = session.Client(raw)
		a := <-ch
		if err != nil || a.err != nil {
			raw.Close()
			if a.c != nil {
				a.c.Close()
			}
			if err == nil {
				err = a.err
			}
			return nil, nil, err
		}
		return cli, a.c, nil
	}

	failed := 0
	ns, _ := perOp(rc.scaled(200, 10), func(int) {
		cli, srv, err := pair()
		if err != nil {
			failed++
			return
		}
		cli.Close()
		srv.Close()
	})
	rc.layer("session.handshake_us", ns/1e3)

	cli, srv, err := pair()
	if err != nil {
		rc.res.violate("session probe: %v", err)
		return
	}
	defer cli.Close()
	defer srv.Close()
	roundTrips := func(n int, payload []byte) float64 {
		ns, _ := perOp(n, func(int) {
			if err := cli.WriteMsg(payload); err != nil {
				failed++
				return
			}
			if _, err := srv.ReadMsg(); err != nil {
				failed++
			}
		})
		return ns
	}
	rc.layer("session.small_msg_ns", roundTrips(rc.scaled(100_000, 1000), make([]byte, 100)))
	bulk := make([]byte, 64<<10)
	ns = roundTrips(rc.scaled(4000, 100), bulk)
	rc.layer("session.bulk_mb_per_s", float64(len(bulk))/1e6/(ns/1e9))
	if failed > 0 {
		rc.res.violate("session probe: %d operations failed", failed)
	}
}
