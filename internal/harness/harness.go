package harness

import (
	"context"
	"fmt"
	"time"

	"lockss/internal/experiment"
	"lockss/internal/netsim"
	"lockss/internal/world"
)

// Backend executes one scenario grid point and returns its structured
// result: the simulator backend on the discrete-event engine, the cluster
// backend on real in-process nodes.
type Backend interface {
	// Name labels the backend in reports.
	Name() string
	// RunPoint executes one grid cell with a driver-prepared configuration.
	RunPoint(ctx context.Context, s *experiment.Scenario, o experiment.Options, cfg world.Config, pt experiment.Point) (experiment.PointResult, error)
}

// SimBackend runs points on the discrete-event simulator the way the cluster
// backend runs them on real nodes: one run at the point's seed, attack-free
// (adversaries need simulator hooks real nodes do not expose), and on the
// cluster's loopback network rather than the paper's WAN. The WAN's 2–60 ms
// hops do not shrink with a compressed poll interval, so at a demo timescale
// they would outlast the protocol's waits.
type SimBackend struct{}

// loopback is the simulated link of a cluster member: a 6-node demo cluster
// answers an invitation in ~0.25 ms (median, four link latencies).
var loopback = netsim.Link{Bandwidth: 10e9, Latency: 60 * time.Microsecond}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// RunPoint implements Backend.
func (b *SimBackend) RunPoint(ctx context.Context, s *experiment.Scenario, o experiment.Options, cfg world.Config, pt experiment.Point) (experiment.PointResult, error) {
	w, err := world.New(cfg)
	if err != nil {
		return experiment.PointResult{}, err
	}
	for _, p := range w.Peers {
		w.Net.SetLink(p.ID(), loopback)
	}
	w.Run()
	return experiment.PointResult{Stats: experiment.StatsOf(w.Metrics, w.DefenderEffort(), 0)}, nil
}

// ClusterBackend runs points on real in-process node clusters. It is
// inherently baseline-only: adversaries install themselves through simulator
// hooks that real nodes do not expose.
type ClusterBackend struct{}

// Name implements Backend.
func (b *ClusterBackend) Name() string { return "cluster" }

// RunPoint implements Backend.
func (b *ClusterBackend) RunPoint(ctx context.Context, s *experiment.Scenario, o experiment.Options, cfg world.Config, pt experiment.Point) (experiment.PointResult, error) {
	stats, err := RunCluster(ctx, cfg)
	if err != nil {
		return experiment.PointResult{}, fmt.Errorf("harness: scenario %q point %d: %w", s.Name, pt.Index, err)
	}
	return experiment.PointResult{Point: pt, Stats: stats}, nil
}

// RunScenario executes a registered scenario's full sweep grid on the given
// backend. Points run serially — a cluster is a real workload. override, if
// non-nil, adjusts each point's configuration after the scenario builds it
// (cross-validation uses it to shrink paper-scale populations to cluster
// scale; the same override must go to both backends for the comparison to
// mean anything).
func RunScenario(ctx context.Context, s *experiment.Scenario, o experiment.Options, b Backend, override func(*world.Config)) (*experiment.Result, error) {
	if s == nil {
		return nil, fmt.Errorf("harness: RunScenario(nil scenario)")
	}
	if s.RunPoint != nil {
		return nil, fmt.Errorf("harness: scenario %q has a custom point executor; the backends run standard points only", s.Name)
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
		pr, err := b.RunPoint(ctx, s, o, cfg, pt)
		if err != nil {
			return nil, err
		}
		pr.Point = pt
		res.Points = append(res.Points, pr)
	}
	return res, nil
}

// Table renders a backend run with the scenario's generic renderer — the
// same table shape for every backend, tolerant of the comparison columns a
// baseline-only backend cannot fill.
func Table(s *experiment.Scenario, o experiment.Options, res *experiment.Result) *experiment.Table {
	return s.GenericTable(o, res)
}
