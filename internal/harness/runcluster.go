package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lockss/internal/effort"
	"lockss/internal/experiment"
	"lockss/internal/ids"
	"lockss/internal/metrics"
	"lockss/internal/node"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/sched"
	"lockss/internal/world"
)

// What a world.Config does not say about running it on real nodes. The
// config's durations run in real time: pass a demo-compressed
// protocol.Config and a horizon of seconds.
const (
	// clusterScrubPace is the pause between scrubbed blocks.
	clusterScrubPace = 100 * time.Millisecond
	// maxClusterNodes caps the cluster size (each node is threads, sockets
	// and a store) and maxClusterAUBytes the per-AU content size.
	maxClusterNodes   = 16
	maxClusterAUBytes = 16 << 20
	// maxClusterWall caps the horizon.
	maxClusterWall = 10 * time.Minute
)

// RunCluster executes one attack-free world configuration on a cluster of
// real nodes and extracts the same RunStats the simulator produces. The
// population is bootstrapped with world's own derivations (catalogue, cost
// model, friends and reference lists, replica salts, acquaintance seeding,
// damage rate), so RunSim and RunCluster audit the same population.
func RunCluster(ctx context.Context, cfg world.Config) (experiment.RunStats, error) {
	if err := validateForCluster(cfg); err != nil {
		return experiment.RunStats{}, err
	}
	dir, err := os.MkdirTemp("", "lockss-harness-")
	if err != nil {
		return experiment.RunStats{}, err
	}
	defer os.RemoveAll(dir)

	// One collector per node: the node's observer events and the damage
	// applied to it all run on its actor loop, so none needs a lock; they are
	// merged once the nodes have stopped.
	spec := clusterSpecFor(cfg, dir)
	colls := make([]*metrics.Collector, cfg.Peers)
	for i := range colls {
		colls[i] = metrics.NewCollectorSized(cfg.AUs)
		spec.Members[i].Config.Observer = colls[i]
	}
	c, err := BuildCluster(spec)
	if err != nil {
		return experiment.RunStats{}, err
	}
	defer c.Stop()
	for i, m := range c.Members {
		p := m.Node.Peer()
		for _, au := range p.AUs() {
			colls[i].RegisterReplica(p.ID(), au, p.Replica(au))
		}
	}

	// t0 precedes every node start: the collectors' time integrals divide by
	// the run's length, so the wall clock is rebased to it.
	t0 := sched.Time(time.Now().UnixNano())
	if err := c.Start(); err != nil {
		return experiment.RunStats{}, err
	}
	stopDamage := startClusterDamage(cfg, c, colls)
	defer stopDamage()

	select {
	case <-time.After(cfg.Duration):
	case <-ctx.Done():
		return experiment.RunStats{}, ctx.Err()
	}
	stopDamage()

	// Gather effort on each actor loop before stopping (Inspect refuses
	// after Stop).
	var defender effort.Seconds
	for _, m := range c.Members {
		m.Node.Inspect(func(p *protocol.Peer) { defender += p.Ledger().Total })
	}
	c.Stop()

	total := metrics.NewCollectorSized(cfg.Peers * cfg.AUs)
	for _, col := range colls {
		total.Merge(col)
	}
	total.Rebase(t0)
	total.Finalize(sched.Time(time.Now().UnixNano()) - t0)
	return experiment.StatsOf(total, defender, 0), nil
}

// clusterSpecFor declares the cluster that audits cfg's population: the
// friends and reference lists are world.New's, sampled from the same stream
// in the same order (every peer's friends, then peer by peer, AU by AU, the
// reference lists).
func clusterSpecFor(cfg world.Config, dir string) ClusterSpec {
	bootRnd := world.BootstrapRand(prng.New(cfg.Seed))
	spec := ClusterSpec{
		AUs:      cfg.Catalogue(),
		Members:  make([]MemberSpec, cfg.Peers),
		SeedEven: cfg.SeedAllEven,
	}
	costs := cfg.CostModel()
	for i := range spec.Members {
		spec.Members[i] = MemberSpec{
			Dir: filepath.Join(dir, fmt.Sprintf("node-%03d", i+1)),
			Config: node.Config{
				Protocol:  cfg.Protocol,
				Costs:     costs,
				Seed:      cfg.Seed,
				ScrubPace: clusterScrubPace,
			},
			Friends: world.SampleOthers(bootRnd, cfg.Peers, i, cfg.Friends),
		}
	}
	for i := range spec.Members {
		refs := make([][]ids.PeerID, cfg.AUs)
		for k := range refs {
			refs[k] = world.SampleOthers(bootRnd, cfg.Peers, i, cfg.Protocol.RefListTarget)
		}
		spec.Members[i].Refs = refs
	}
	return spec
}

// validateForCluster guards against configurations that only make sense
// in the simulator (hundred-peer populations, gigabyte AUs, year horizons).
func validateForCluster(cfg world.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Peers > maxClusterNodes {
		return fmt.Errorf("harness: %d nodes exceeds the cluster cap %d (override the scenario config down to cluster scale)", cfg.Peers, maxClusterNodes)
	}
	if cfg.AUSize > maxClusterAUBytes {
		return fmt.Errorf("harness: AU size %d exceeds the cluster cap %d bytes", cfg.AUSize, maxClusterAUBytes)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("harness: need a positive horizon")
	}
	if cfg.Duration > maxClusterWall {
		return fmt.Errorf("harness: horizon %v runs in real time; compress the config", cfg.Duration)
	}
	if cfg.Churn != (world.Churn{}) {
		return errChurn
	}
	return nil
}

// startClusterDamage runs the simulator's storage-damage Poisson process
// against the cluster in wall time: the same mean gap and the same per-peer
// randomness streams. Damage is applied on the owning node's actor loop (via
// Inspect), so neither the replica nor the node's collector is raced. The
// returned stop function is idempotent and waits for the drivers to exit.
func startClusterDamage(cfg world.Config, c *Cluster, colls []*metrics.Collector) func() {
	meanGap := cfg.DamageMeanGap()
	if meanGap == 0 {
		return func() {}
	}
	root := prng.New(cfg.Seed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, m := range c.Members {
		wg.Add(1)
		go func(rnd *prng.Source, n *node.Node, col *metrics.Collector) {
			defer wg.Done()
			for {
				gap := time.Duration(rnd.ExpFloat64(meanGap))
				select {
				case <-time.After(gap):
				case <-stop:
					return
				}
				n.Inspect(func(p *protocol.Peer) {
					aus := p.AUs()
					if len(aus) == 0 {
						return
					}
					au := aus[rnd.Intn(len(aus))]
					replica := p.Replica(au)
					block := rnd.Intn(replica.Spec().Blocks())
					replica.Damage(block)
					col.OnDamage(p.ID(), au, sched.Time(time.Now().UnixNano()))
				})
			}
		}(world.DamageRand(root, i), m.Node, colls[i])
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
}
