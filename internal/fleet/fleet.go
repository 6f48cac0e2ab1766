package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lockss/internal/admin"
	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/harness"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/protocol"
	"lockss/internal/store"
)

// blackhole is where a partitioned peer's address points: a loopback port
// nothing listens on, so dials fail fast and back off.
const blackhole = "127.0.0.1:1"

const (
	// maxInbound caps every member's inbound sessions, globally and per
	// address alike: the whole fleet shares 127.0.0.1, so the node's
	// per-address default would turn the population away.
	maxInbound = 4096
	// scrubPace is the pause between scrubbed blocks, fast enough that
	// injected rot is found within a demo-length run.
	scrubPace = 50 * time.Millisecond
	// sampleTimeout bounds each member's read in a sweep, so one wedged
	// actor loop cannot stall the sweep past its interval.
	sampleTimeout = 2 * time.Second
)

// member is one supervised node. All fields are owned by the fleet's run
// loop; scrape workers receive copies of what they need.
type member struct {
	idx int        // 0-based slot in the cluster
	id  ids.PeerID // 1-based, == idx+1
	n   *node.Node
	st  *store.Store // nil for in-memory fleets
	dir string       // store dir, "" for in-memory

	protoAddr string // current protocol listen address

	down    bool
	stalled chan struct{} // non-nil while the actor loop is wedged
}

// Fleet supervises a population of in-process nodes.
type Fleet struct {
	cfg  Config
	rng  *rand.Rand
	logf func(format string, args ...any)
	// cluster builds (and, on restart, rebuilds) the nodes; members carry
	// what the fleet adds to each: addresses and fault state.
	cluster *harness.Cluster
	members []*member
	// partition holds the currently isolated subnet (1-based ids); empty
	// means fully connected. Restarted nodes re-apply it.
	partition map[int]bool
}

// New builds a fleet from a validated config. Call Run to operate it.
func New(cfg Config, logf func(format string, args ...any)) *Fleet {
	cfg = cfg.withDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Fleet{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(int64(cfg.Seed))),
		logf:      logf,
		partition: make(map[int]bool),
	}
}

// serve attaches member m to its freshly (re)built, running cluster node.
func (f *Fleet) serve(m *member) {
	cm := f.cluster.Members[m.idx]
	m.n, m.st = cm.Node, cm.Store
	m.protoAddr = m.n.Addr().String()
	m.down = false
}

// addrFor is the address viewer sees for target: the real one, or the
// blackhole when the live partition separates them.
func (f *Fleet) addrFor(viewer, target *member) string {
	if f.partition[int(viewer.id)] != f.partition[int(target.id)] {
		return blackhole
	}
	return target.protoAddr
}

// Start builds the population through the shared loopback-cluster builder —
// every node holds every AU, knows every other node at an Even grade and has
// it on its friends and reference lists — and boots it. Durable members
// reopen what their store directory holds and resume its damage state;
// in-memory members synthesize pristine replicas.
func (f *Fleet) Start() error {
	spec := harness.ClusterSpec{
		AUs:      make([]content.AUSpec, f.cfg.AUs),
		Members:  make([]harness.MemberSpec, f.cfg.Nodes),
		SeedEven: true,
	}
	for i := range spec.AUs {
		spec.AUs[i] = content.DemoAUSpec(i, f.cfg.AUSize, f.cfg.BlockSize)
	}
	pcfg, err := f.cfg.protocolConfig()
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	f.members = make([]*member, f.cfg.Nodes)
	for i := range f.members {
		m := &member{idx: i, id: ids.PeerID(i + 1)}
		if f.cfg.DataDir != "" {
			m.dir = filepath.Join(f.cfg.DataDir, fmt.Sprintf("node-%03d", m.id))
			if err := os.MkdirAll(m.dir, 0o755); err != nil {
				return err
			}
		}
		f.members[i] = m
		spec.Members[i] = harness.MemberSpec{
			Dir: m.dir,
			Config: node.Config{
				Protocol:          pcfg,
				Costs:             effort.DemoCostModel(),
				Seed:              f.cfg.Seed*1_000_003 + uint64(i+1)*7919,
				MaxInbound:        maxInbound,
				MaxInboundPerAddr: maxInbound,
				ScrubPace:         scrubPace,
			},
		}
	}
	c, err := harness.BuildCluster(spec)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	f.cluster = c
	if err := c.Start(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	for _, m := range f.members {
		f.serve(m)
	}
	f.logf("fleet: %d nodes up, %d AUs each", f.cfg.Nodes, f.cfg.AUs)
	return nil
}

// stopAll releases every stall and stops the cluster. It is idempotent.
func (f *Fleet) stopAll() {
	for _, m := range f.members {
		if m != nil && m.stalled != nil {
			close(m.stalled)
			m.stalled = nil
		}
	}
	if f.cluster != nil {
		f.cluster.Stop()
	}
}

// apply executes one pinned fault. It returns a short human description of
// what actually happened (for the log and report).
func (f *Fleet) apply(fault Fault) (string, error) {
	switch fault.Kind {
	case "damage":
		m := f.members[fault.Node-1]
		if m.down {
			return "", fmt.Errorf("damage target node %d is down", fault.Node)
		}
		au := content.AUID(fault.AU)
		if m.st != nil {
			// Silent on-disk rot: the scrubber has to find it.
			if err := m.st.InjectDamage(au, fault.Block); err != nil {
				return "", err
			}
			return fmt.Sprintf("silent rot on disk: node %d AU %d block %d", fault.Node, fault.AU, fault.Block), nil
		}
		// In-memory replicas are the actor loop's to touch, and a stalled
		// loop would hold the fault schedule until nothing could release it.
		if m.stalled != nil {
			return "", fmt.Errorf("damage target node %d is stalled", fault.Node)
		}
		okc := make(chan bool, 1)
		if !m.n.Inspect(func(p *protocol.Peer) { okc <- p.Replica(au).Damage(fault.Block) }) {
			return "", fmt.Errorf("damage: node %d not inspectable", fault.Node)
		}
		if !<-okc {
			return "", fmt.Errorf("damage: node %d AU %d block %d rejected", fault.Node, fault.AU, fault.Block)
		}
		return fmt.Sprintf("bit rot: node %d AU %d block %d", fault.Node, fault.AU, fault.Block), nil

	case "kill":
		m := f.members[fault.Node-1]
		if m.down {
			return "", fmt.Errorf("kill target node %d already down", fault.Node)
		}
		if m.stalled != nil {
			close(m.stalled)
			m.stalled = nil
		}
		m.n.Stop() // closes a durable member's store too
		m.down = true
		return fmt.Sprintf("killed node %d", fault.Node), nil

	case "restart":
		m := f.members[fault.Node-1]
		if !m.down {
			return "", fmt.Errorf("restart target node %d is not down", fault.Node)
		}
		// The member's surviving state is its store directory: the rebuilt
		// node reopens it, damage marks and silent rot included. It learns
		// the population's addresses, and the population its new one, under
		// whatever partition is live.
		if err := f.cluster.Rebuild(m.idx); err != nil {
			return "", fmt.Errorf("fleet: %w", err)
		}
		n := f.cluster.Members[m.idx].Node
		if err := n.Start(); err != nil {
			n.Stop()
			return "", fmt.Errorf("fleet: node %d start: %w", m.id, err)
		}
		f.serve(m)
		f.rewireAll()
		return fmt.Sprintf("restarted node %d on %s", fault.Node, m.protoAddr), nil

	case "stall":
		m := f.members[fault.Node-1]
		if m.down || m.stalled != nil {
			return "", fmt.Errorf("stall target node %d down or already stalled", fault.Node)
		}
		release := make(chan struct{})
		m.stalled = release
		go m.n.Inspect(func(p *protocol.Peer) { <-release })
		return fmt.Sprintf("stalled node %d (actor loop wedged)", fault.Node), nil

	case "unstall":
		m := f.members[fault.Node-1]
		if m.stalled == nil {
			return "", fmt.Errorf("unstall target node %d is not stalled", fault.Node)
		}
		close(m.stalled)
		m.stalled = nil
		return fmt.Sprintf("unstalled node %d", fault.Node), nil

	case "partition":
		f.partition = make(map[int]bool)
		for _, id := range fault.Subnet {
			f.partition[id] = true
		}
		f.rewireAll()
		// Severing live sessions makes the partition bite immediately
		// instead of when the next dial happens.
		for _, m := range f.members {
			if !m.down {
				m.n.DropConnections()
			}
		}
		return fmt.Sprintf("partitioned subnet %v from the rest", fault.Subnet), nil

	case "heal":
		f.partition = make(map[int]bool)
		f.rewireAll()
		return "healed partition", nil
	}
	return "", fmt.Errorf("unknown fault kind %q", fault.Kind)
}

// rewireAll reasserts every pairwise address under the current partition.
func (f *Fleet) rewireAll() {
	for _, m := range f.members {
		if m.down {
			continue
		}
		for _, o := range f.members {
			if o != m {
				m.n.SetAddress(o.id, f.addrFor(m, o))
			}
		}
	}
}

// Run operates the fleet end to end: boot, drive the fault schedule, scrape
// on the interval, shut down, and return the report. The context cancels
// the run early (the report covers what ran).
func (f *Fleet) Run(ctx context.Context) (*Report, error) {
	if err := f.Start(); err != nil {
		return nil, err
	}
	defer f.stopAll()

	plan := f.cfg.schedule(f.rng)
	rep := &Report{
		Nodes:  f.cfg.Nodes,
		AUs:    f.cfg.AUs,
		Seed:   f.cfg.Seed,
		Config: f.cfg,
	}
	start := time.Now()
	next := 0
	scrape := time.NewTicker(time.Duration(f.cfg.ScrapeInterval))
	defer scrape.Stop()
	end := time.NewTimer(time.Duration(f.cfg.Duration))
	defer end.Stop()
	sampleCh := make(chan Sample, 4)
	var scraping atomic.Bool

	fire := func() {
		for next < len(plan) && time.Since(start) >= time.Duration(plan[next].At) {
			fl := plan[next]
			next++
			desc, err := f.apply(fl)
			ev := FaultEvent{At: Duration(time.Since(start)), Fault: fl}
			if err != nil {
				ev.Error = err.Error()
				f.logf("fleet: fault %s FAILED: %v", fl.Kind, err)
			} else {
				ev.Desc = desc
				f.logf("fleet: %s", desc)
			}
			rep.FaultLog = append(rep.FaultLog, ev)
		}
	}
	// armed returns a channel firing when the next unapplied fault is due.
	var faultTimer *time.Timer
	arm := func() <-chan time.Time {
		if next >= len(plan) {
			return nil
		}
		d := time.Until(start.Add(time.Duration(plan[next].At)))
		if d < 0 {
			d = 0
		}
		if faultTimer == nil {
			faultTimer = time.NewTimer(d)
		} else {
			faultTimer.Reset(d)
		}
		return faultTimer.C
	}
	defer func() {
		if faultTimer != nil {
			faultTimer.Stop()
		}
	}()

loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-end.C:
			break loop
		case <-arm():
			fire()
		case smp := <-sampleCh:
			rep.Samples = append(rep.Samples, smp)
		case <-scrape.C:
			// Scrapes run off the loop so a wedged node's timeouts can
			// never delay the fault schedule; member state is snapshotted
			// here (the loop owns it) and handed to the worker. A sweep
			// still in flight skips the tick rather than piling up.
			if scraping.CompareAndSwap(false, true) {
				at := time.Since(start)
				targets := f.scrapeTargets()
				go func() {
					defer scraping.Store(false)
					smp := sampleTargets(Duration(at), targets)
					sampleCh <- smp
				}()
			}
		}
	}

	// Collect the in-flight sweep, then one final synchronous sweep while
	// everything still runs, then authoritative on-disk verification after
	// shutdown for durable fleets.
	for scraping.Load() {
		select {
		case smp := <-sampleCh:
			rep.Samples = append(rep.Samples, smp)
		case <-time.After(20 * time.Millisecond):
		}
	}
	for {
		select {
		case smp := <-sampleCh:
			rep.Samples = append(rep.Samples, smp)
			continue
		default:
		}
		break
	}
	sort.SliceStable(rep.Samples, func(i, j int) bool { return rep.Samples[i].At < rep.Samples[j].At })
	final := sampleTargets(Duration(time.Since(start)), f.scrapeTargets())
	rep.Samples = append(rep.Samples, final)
	rep.Final = f.finalReport(final)
	// Flight-recorder sweep: histograms and poll spans live in the nodes'
	// recorders, so they must be read before the nodes go away.
	rep.Telemetry = collectTelemetry(f.members)
	f.stopAll()
	if f.cfg.DataDir != "" {
		unrepaired, err := f.verifyStores()
		if err != nil {
			return rep, err
		}
		rep.Final.UnrepairedDamage = unrepaired
		rep.Final.Converged = unrepaired == 0
	}
	rep.Elapsed = Duration(time.Since(start))
	return rep, nil
}

// scrapeTarget is the loop's snapshot of one member for a scrape worker.
type scrapeTarget struct {
	id   int
	down bool
	n    *node.Node
}

func (f *Fleet) scrapeTargets() []scrapeTarget {
	out := make([]scrapeTarget, len(f.members))
	for i, m := range f.members {
		out[i] = scrapeTarget{id: int(m.id), down: m.down, n: m.n}
	}
	return out
}

// sampleTargets reads every target's scalar families and health in process,
// concurrently, each bounded by sampleTimeout, and aggregates. It touches no
// fleet state.
func sampleTargets(at Duration, targets []scrapeTarget) Sample {
	s := Sample{At: at, Aggregate: newSampleAggregate(), PerNode: make([]NodeSample, len(targets))}
	var wg sync.WaitGroup
	for i, tgt := range targets {
		ns := &s.PerNode[i]
		ns.Node = tgt.id
		if tgt.down {
			ns.Down = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ns.Metrics, ns.Healthy = admin.Read(tgt.n, sampleTimeout)
			ns.Damage = int(ns.Metrics["lockss_au_damaged_blocks"])
			ns.ActivePolls = int(ns.Metrics["lockss_active_polls"])
		}()
	}
	wg.Wait()
	for i := range s.PerNode {
		ns := &s.PerNode[i]
		if ns.Down {
			s.NodesDown++
			continue
		}
		s.NodesUp++
		if ns.Healthy {
			s.NodesHealthy++
		}
		s.DamagedBlocks += float64(ns.Damage)
		for _, k := range aggregateKeys {
			s.Aggregate[k.field] += ns.Metrics[k.metric]
		}
	}
	return s
}

// finalReport condenses the last sample into the verdict the CI gate reads.
func (f *Fleet) finalReport(final Sample) Final {
	fin := Final{
		NodesUp:          final.NodesUp,
		NodesHealthy:     final.NodesHealthy,
		UnrepairedDamage: int(final.DamagedBlocks),
		AllHealthy:       final.NodesHealthy == f.cfg.Nodes,
	}
	fin.Converged = fin.UnrepairedDamage == 0
	fin.PerNode = final.PerNode
	return fin
}

// verifyStores re-opens every durable store after shutdown and counts
// blocks that fail manifest verification — ground truth that catches silent
// rot no scrubber pass had reached yet.
func (f *Fleet) verifyStores() (int, error) {
	unrepaired := 0
	for _, m := range f.members {
		if m.dir == "" || m.down {
			continue
		}
		st, err := store.Open(m.dir)
		if err != nil {
			return 0, fmt.Errorf("fleet: verify node %d: %w", m.id, err)
		}
		dam := st.VerifyAll()
		st.Close()
		unrepaired += len(dam)
	}
	return unrepaired, nil
}
