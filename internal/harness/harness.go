package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lockss/internal/experiment"
	"lockss/internal/netsim"
	"lockss/internal/world"
)

// RunSim runs one configuration on the discrete-event simulator the way
// RunCluster runs it on real nodes: one run at the configuration's seed,
// attack-free (adversaries need simulator hooks real nodes do not expose),
// and on the cluster's loopback network rather than the paper's WAN. The
// WAN's 2–60 ms hops do not shrink with a compressed poll interval, so at a
// demo timescale they would outlast the protocol's waits. A cluster's
// membership is fixed, so a config with churn is refused, as RunCluster
// refuses it.
func RunSim(ctx context.Context, cfg world.Config) (experiment.RunStats, error) {
	if cfg.Churn != (world.Churn{}) {
		return experiment.RunStats{}, errChurn
	}
	w, err := world.New(cfg)
	if err != nil {
		return experiment.RunStats{}, err
	}
	for _, p := range w.Peers {
		w.Net.SetLink(p.ID(), loopback)
	}
	w.Run()
	return experiment.StatsOf(w.Metrics, w.DefenderEffort(), 0), nil
}

// errChurn refuses a config with churn on either backend: a cluster has no
// newcomers to mirror.
var errChurn = errors.New("harness: a cluster has no churn; its members are fixed")

// loopback is the simulated link of a cluster member: a 6-node demo cluster
// answers an invitation in ~0.25 ms (median, four link latencies).
var loopback = netsim.Link{Bandwidth: 10e9, Latency: 60 * time.Microsecond}

// RunScenario executes a registered scenario's full sweep grid with run —
// RunSim or RunCluster — one attack-free run per point. Points run serially:
// a cluster is a real workload. override, if non-nil, adjusts each point's
// configuration after the scenario builds it (cross-validation uses it to
// shrink paper-scale populations to cluster scale; the same override must go
// to both sides for the comparison to mean anything). Render the result with
// the scenario's GenericTable, which tolerates the missing comparison
// columns.
func RunScenario(ctx context.Context, s *experiment.Scenario, o experiment.Options,
	run func(context.Context, world.Config) (experiment.RunStats, error), override func(*world.Config)) (*experiment.Result, error) {
	if s == nil {
		return nil, fmt.Errorf("harness: RunScenario(nil scenario)")
	}
	points, err := s.Points(o)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{Scenario: s.Name}
	for _, pt := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := s.ConfigAt(o, pt)
		if override != nil {
			override(&cfg)
		}
		stats, err := run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: scenario %q point %d: %w", s.Name, pt.Index, err)
		}
		res.Points = append(res.Points, experiment.PointResult{Point: pt, Stats: stats})
	}
	return res, nil
}
