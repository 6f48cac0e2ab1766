// Package world assembles complete simulated LOCKSS populations: the event
// engine, the network model, loyal peers with their replicas and bootstrap
// state, the storage-damage process, and metrics collection. Adversaries
// attach to a World through the hooks it exposes. A world runs on one
// sim.Engine, on the goroutine that calls Run.
package world

import (
	"fmt"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/metrics"
	"lockss/internal/netsim"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/telemetry"
)

// Config sizes a simulated population. The defaults in Default() follow the
// paper's §6.3 operating point.
type Config struct {
	// Seed drives all randomness in the run.
	Seed uint64
	// Peers is the loyal population size (paper: 100).
	Peers int
	// AUs is the number of archival units each peer preserves (paper: 50
	// per layer, up to 600 via layering).
	AUs int
	// AUSize is the content size per AU in bytes (paper: 0.5 GB).
	AUSize int64
	// Protocol is the protocol operating point.
	Protocol protocol.Config
	// DamageDiskYears is the mean time between undetected storage damage
	// events per disk, in years (paper: 1 to 5); zero disables damage.
	DamageDiskYears float64
	// AUsPerDisk divides the collection into disks for the damage process
	// (paper: 50).
	AUsPerDisk int
	// Friends is the operator-maintained friends list size per peer.
	Friends int
	// SeedAllEven initializes every loyal pair at an Even grade, modeling a
	// deployment with history rather than a cold bootstrap. O(Peers²·AUs) —
	// keep it off at 10k+ peer scales.
	SeedAllEven bool
	// Costs prices every effort the world charges, founders' and
	// newcomers' alike; the zero value means effort.DefaultCostModel()
	// (ablations slow its hashing to raise peer busyness, and the
	// cross-backend harness charges simulated peers a real node's costs).
	Costs effort.CostModel
	// Churn adds loyal peers over the run (§9); the zero value adds none.
	Churn Churn
	// Duration is the simulated horizon.
	Duration sim.Duration
	// Telemetry, when non-nil, receives every peer's poll-lifecycle events
	// teed alongside the metrics collector: the same histograms a real node
	// records, fed from virtual time, so a run's histogram snapshots and
	// flight-recorder ring are as deterministic as the run itself.
	Telemetry *telemetry.Telemetry
	// Deprecated: ignored; every world runs on one engine. Remains only
	// because bench/simlarge.go, which product PRs may not edit, sets it
	// (ROADMAP item 1(h) deletes it).
	Shards int
}

// Default returns the paper-scale configuration (one 50-AU layer).
func Default() Config {
	return Config{
		Seed:            1,
		Peers:           100,
		AUs:             50,
		AUSize:          512 << 20,
		Protocol:        protocol.DefaultConfig(),
		DamageDiskYears: 5,
		AUsPerDisk:      50,
		Friends:         5,
		SeedAllEven:     true,
		Costs:           effort.DefaultCostModel(),
		Duration:        2 * sim.Year,
	}
}

// Validate reports whether cfg describes a population that can hold polls.
func (c Config) Validate() error {
	if c.Peers <= 0 || c.AUs <= 0 {
		return fmt.Errorf("world: need positive peers and AUs")
	}
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if c.Peers <= c.Protocol.Quorum {
		return fmt.Errorf("world: population %d cannot sustain quorum %d", c.Peers, c.Protocol.Quorum)
	}
	return nil
}

// The population bootstrap. world.New derives a population from a Config with
// the functions below; the real-node cluster harness calls the same ones, so
// the two backends audit the same catalogue, under the same costs, with the
// same friends and reference lists and the same damage rate.

// Catalogue returns the AU catalogue every peer preserves.
func (c Config) Catalogue() []content.AUSpec {
	specs := make([]content.AUSpec, c.AUs)
	for i := range specs {
		specs[i] = content.AUSpec{
			ID:        content.AUID(i + 1),
			Name:      fmt.Sprintf("au-%03d", i+1),
			Size:      c.AUSize,
			BlockSize: c.Protocol.BlockSize,
		}
	}
	return specs
}

// CostModel returns the cost model loyal peers are charged under: Costs, or
// the default for a zero value.
func (c Config) CostModel() effort.CostModel {
	if c.Costs == (effort.CostModel{}) {
		return effort.DefaultCostModel()
	}
	return c.Costs
}

// DamageMeanGap returns the mean time between storage-damage events at one
// peer, in nanoseconds, or 0 when damage is disabled: one event per disk per
// DamageDiskYears, with ceil(AUs/AUsPerDisk) disks.
func (c Config) DamageMeanGap() float64 {
	if c.DamageDiskYears <= 0 {
		return 0
	}
	perDisk := c.AUsPerDisk
	if perDisk <= 0 {
		perDisk = 50
	}
	disks := (c.AUs + perDisk - 1) / perDisk
	ratePerYear := float64(disks) / c.DamageDiskYears
	return float64(sim.Year) / ratePerYear
}

// BootstrapRand derives the stream the bootstrap samples from, and DamageRand
// the stream of one peer's damage process, from a run's root source
// (prng.New(Config.Seed)).
func BootstrapRand(root *prng.Source) *prng.Source { return root.Child("bootstrap") }
func DamageRand(root *prng.Source, peer int) *prng.Source {
	return root.ChildN("damage", peer)
}

// SampleOthers draws n distinct peers other than self (a peer index) from a
// population of the given size. The bootstrap draws every peer's friends
// list and then, peer by peer and AU by AU, every reference list from
// BootstrapRand, in that order.
func SampleOthers(rnd *prng.Source, peers, self, n int) []ids.PeerID {
	if n > peers-1 {
		n = peers - 1
	}
	out := make([]ids.PeerID, 0, n)
	for _, j := range rnd.Sample(peers, n+1) {
		if j != self && len(out) < n {
			out = append(out, PeerIDOf(j))
		}
	}
	return out
}

// ReplicaSalt individualizes the damage marks of peer id's replica of au.
func ReplicaSalt(id ids.PeerID, au content.AUID) uint64 {
	return uint64(id)<<20 | uint64(au)
}

// SeedEven starts p at an Even grade with every other member of a founding
// population, on every AU it preserves (Config.SeedAllEven).
func SeedEven(p *protocol.Peer, population int) {
	for _, au := range p.AUs() {
		for j := 0; j < population; j++ {
			p.SeedGrade(au, PeerIDOf(j), reputation.Even)
		}
	}
}

// World is one assembled simulation.
type World struct {
	Cfg Config
	// Engine runs every event of the world: peers, damage, churn and any
	// attached adversary all schedule on it.
	Engine *sim.Engine
	Net    *netsim.Network
	Peers  []*protocol.Peer
	// Metrics observes every replica, live; Run finalizes its time integrals
	// at the horizon.
	Metrics *metrics.Collector
	// AdversaryLedger accumulates attacker effort (effortful attacks), live,
	// as ChargeAdversary and BurstPayload.Deliver charge it.
	AdversaryLedger *effort.Ledger
	// Root is the root randomness source; adversaries derive children.
	Root *prng.Source
	// Joins summarizes Cfg.Churn's newcomers; read it after Run.
	Joins JoinStats

	specs []content.AUSpec
	// costs and obs are the cost model and observer every peer, founder or
	// newcomer, is built with (see newPeer).
	costs effort.CostModel
	obs   protocol.Observer

	// proofs interns the boxed symbolic proofs MakeProof hands out, so an
	// identical immutable SimProof is not re-boxed on every message. Costs
	// come from the cost model for the world's one AU size, so there are a
	// handful at most and a scan beats hashing a float.
	proofs []effort.Proof

	// freeMsgs and freeBursts hold the payloads Net has handed back through
	// its Release hook. A run sends millions of messages but only those in
	// flight are live at once, so NewMsg and NewBurst rarely allocate.
	freeMsgs   []*protocol.Msg
	freeBursts []*BurstPayload
}

// Env adapts a World to protocol.Env for one peer.
type Env struct {
	w   *World
	id  ids.PeerID
	rnd *prng.Source
}

// Now implements protocol.Env.
func (e *Env) Now() sched.Time { return e.w.Engine.Now() }

// After implements protocol.Env. Engine event IDs are issued from 1, so they
// serve directly as protocol timer IDs (zero = none) without a cancel
// closure per timer.
func (e *Env) After(d sched.Duration, fn func()) protocol.TimerID {
	return protocol.TimerID(e.w.Engine.After(d, fn))
}

// Cancel implements protocol.Env.
func (e *Env) Cancel(t protocol.TimerID) bool {
	return e.w.Engine.Cancel(sim.EventID(t))
}

// Rand implements protocol.Env.
func (e *Env) Rand() *prng.Source { return e.rnd }

// Send implements protocol.Env. The network carries a pooled copy of m, so
// the peer may reuse m as soon as Send returns.
func (e *Env) Send(to ids.PeerID, m *protocol.Msg) {
	r := e.w.NewMsg(m)
	e.w.Net.Send(e.id, to, r, r.WireSize())
}

// NewMsg returns a pooled copy of m for Net.Send, with Nominations copied
// into the record's own backing array. The network hands the record back to
// the pool once it has delivered or dropped it, so no sender or handler may
// keep it.
func (w *World) NewMsg(m *protocol.Msg) *protocol.Msg {
	var r *protocol.Msg
	if k := len(w.freeMsgs); k > 0 {
		r = w.freeMsgs[k-1]
		w.freeMsgs = w.freeMsgs[:k-1]
	} else {
		r = new(protocol.Msg)
	}
	noms := append(r.Nominations[:0], m.Nominations...)
	*r = *m
	r.Nominations = noms
	return r
}

// release is Net's Release hook: it returns the world's message and burst
// records to their pools as they are. NewMsg and NewBurst overwrite every
// field on reuse, and a message keeps its nominations array.
func (w *World) release(payload any) {
	switch v := payload.(type) {
	case *protocol.Msg:
		w.freeMsgs = append(w.freeMsgs, v)
	case *BurstPayload:
		w.freeBursts = append(w.freeBursts, v)
	}
}

// MakeProof implements protocol.Env with a symbolic proof; the effort cost
// is charged by the protocol through the peer's ledger and schedule.
func (e *Env) MakeProof(ctx []byte, cost effort.Seconds, receipt *effort.Receipt) effort.Proof {
	if receipt != nil {
		*receipt = effort.SimReceiptFor(ctx, cost)
	}
	for _, p := range e.w.proofs {
		if p.Cost() == cost {
			return p
		}
	}
	p := effort.Proof(effort.SimProof{Effort: cost, Genuine: true})
	e.w.proofs = append(e.w.proofs, p)
	return p
}

// VerifyProof implements protocol.Env.
func (e *Env) VerifyProof(ctx []byte, p effort.Proof, minCost effort.Seconds) bool {
	return p != nil && p.Valid(ctx) && p.Cost() >= minCost-1e-9
}

// EvalReceipt implements protocol.Env.
func (e *Env) EvalReceipt(ctx []byte, p effort.Proof) (effort.Receipt, bool) {
	if p == nil || !p.Valid(ctx) {
		return effort.Receipt{}, false
	}
	return effort.SimReceiptFor(ctx, p.Cost()), true
}

// PeerIDOf maps a peer index to its PeerID (1-based).
func PeerIDOf(index int) ids.PeerID { return ids.PeerID(index + 1) }

// New assembles a world. Background load hooks (for 600-AU layering) may be
// installed on peer schedules before Run.
func New(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		Cfg:             cfg,
		Engine:          sim.NewEngine(),
		Metrics:         metrics.NewCollectorSized(cfg.Peers * cfg.AUs),
		AdversaryLedger: new(effort.Ledger),
		Root:            prng.New(cfg.Seed),
	}
	// Loyal peers plus a margin for adversary-controlled nodes.
	w.Net = netsim.NewSized(w.Engine, cfg.Peers+8)
	w.Net.Release = w.release

	w.specs = cfg.Catalogue()
	w.costs = cfg.CostModel()
	// Every peer reports to the metrics collector, teed into the world's
	// telemetry recorder when one is configured.
	w.obs = w.Metrics
	if cfg.Telemetry != nil {
		w.obs = protocol.TeeObserver(w.Metrics, cfg.Telemetry)
	}
	linkRnd := w.Root.Child("links")
	bootRnd := BootstrapRand(w.Root)

	w.Peers = make([]*protocol.Peer, cfg.Peers)
	for i := range w.Peers {
		p, err := w.newPeer(PeerIDOf(i), w.Root.ChildN("peer", i), linkRnd)
		if err != nil {
			return nil, err
		}
		w.Peers[i] = p
	}

	// Friends lists: a random sample per peer.
	for i, p := range w.Peers {
		p.SetFriends(SampleOthers(bootRnd, cfg.Peers, i, cfg.Friends))
	}

	// Replicas and bootstrap reference lists.
	for i, p := range w.Peers {
		err := w.addReplicas(p, func() []ids.PeerID {
			return SampleOthers(bootRnd, cfg.Peers, i, cfg.Protocol.RefListTarget)
		})
		if err != nil {
			return nil, err
		}
	}
	w.enableChurn()
	return w, nil
}

// newPeer builds peer id, drawing from its own stream rnd, on the world's
// cost model and observer, and attaches it to the network on a link drawn
// from links.
func (w *World) newPeer(id ids.PeerID, rnd, links *prng.Source) (*protocol.Peer, error) {
	p, err := protocol.New(id, &w.Cfg.Protocol, &w.costs, &Env{w: w, id: id, rnd: rnd}, w.obs)
	if err != nil {
		return nil, err
	}
	w.Net.AddNode(id, netsim.RandomLink(links), func(from ids.PeerID, payload any, size int) {
		deliver(w, p, from, payload)
	})
	return p, nil
}

// addReplicas gives p a replica of every AU in the catalogue, each with the
// reference list refs returns, and registers each with the metrics.
func (w *World) addReplicas(p *protocol.Peer, refs func() []ids.PeerID) error {
	for _, spec := range w.specs {
		replica := content.NewSimReplica(spec, ReplicaSalt(p.ID(), spec.ID))
		if err := p.AddAU(replica, refs()); err != nil {
			return err
		}
		w.Metrics.RegisterReplica(p.ID(), spec.ID, replica)
	}
	return nil
}

// deliver dispatches one delivered payload to a peer, expanding invitation
// bursts (see BurstPayload) into individual protocol messages.
func deliver(w *World, p *protocol.Peer, from ids.PeerID, payload any) {
	switch v := payload.(type) {
	case *protocol.Msg:
		p.Receive(from, v)
	case *BurstPayload:
		v.Deliver(w, p)
	}
}

// ChargeAdversary charges attacker effort to the adversary ledger.
func (w *World) ChargeAdversary(kind effort.Kind, cost effort.Seconds) {
	w.AdversaryLedger.Charge(kind, cost)
}

// Specs returns the AU catalogue.
func (w *World) Specs() []content.AUSpec {
	out := make([]content.AUSpec, len(w.specs))
	copy(out, w.specs)
	return out
}

// Peer returns the i-th loyal peer.
func (w *World) Peer(i int) *protocol.Peer { return w.Peers[i] }

// SeedAcquaintance initializes the steady-state grade matrix.
func (w *World) seedAcquaintance() {
	if !w.Cfg.SeedAllEven {
		return
	}
	for _, p := range w.Peers {
		SeedEven(p, len(w.Peers))
	}
}

// startDamage schedules the storage-damage Poisson process of each peer.
func (w *World) startDamage() {
	meanGap := w.Cfg.DamageMeanGap()
	if meanGap == 0 {
		return
	}
	for i, p := range w.Peers {
		peer := p
		rnd := DamageRand(w.Root, i)
		var schedule func()
		schedule = func() {
			gap := sim.Duration(rnd.ExpFloat64(meanGap))
			w.Engine.After(gap, func() {
				aus := peer.AUs()
				au := aus[rnd.Intn(len(aus))]
				replica := peer.Replica(au)
				block := rnd.Intn(replica.Spec().Blocks())
				replica.Damage(block)
				w.Metrics.OnDamage(peer.ID(), au, w.Engine.Now())
				schedule()
			})
		}
		schedule()
	}
}

// Run seeds acquaintance, starts peers and damage, executes the horizon and
// finalizes metrics. Adversaries must be installed before Run.
func (w *World) Run() {
	w.seedAcquaintance()
	for _, p := range w.Peers {
		p.Start()
	}
	w.startDamage()
	w.Engine.Run(sim.Time(w.Cfg.Duration))
	w.Metrics.Finalize(w.Engine.Now())
}

// EventsExecuted returns the number of events the run has executed.
func (w *World) EventsExecuted() uint64 { return w.Engine.Executed }

// InstallProgress arranges for fn to be called every stride executed events
// with the virtual time reached and the executed-event count.
func (w *World) InstallProgress(stride uint64, fn func(vt sim.Time, events uint64)) {
	w.Engine.SetProgress(stride, fn)
}

// DefenderEffort sums all loyal peers' ledgers.
func (w *World) DefenderEffort() effort.Seconds {
	var total effort.Seconds
	for _, p := range w.Peers {
		total += p.Ledger().Total
	}
	return total
}

// DefenderEffortByKind aggregates loyal ledgers per kind.
func (w *World) DefenderEffortByKind() (out [effort.NumKinds]effort.Seconds) {
	for _, p := range w.Peers {
		for k, v := range p.Ledger().ByKind {
			out[k] += v
		}
	}
	return out
}
