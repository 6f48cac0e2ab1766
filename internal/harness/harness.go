package harness

import (
	"context"
	"fmt"

	"lockss/internal/experiment"
	"lockss/internal/world"
)

// Backend executes one scenario grid point and returns its structured
// result. The simulator backend runs the point as the experiment package
// always has; the cluster backend runs it on real in-process nodes.
type Backend interface {
	// Name labels the backend in reports.
	Name() string
	// RunPoint executes one grid cell with a driver-prepared configuration.
	RunPoint(ctx context.Context, s *experiment.Scenario, o experiment.Options, cfg world.Config, pt experiment.Point) (experiment.PointResult, error)
}

// SimBackend runs points on the discrete-event simulator.
type SimBackend struct {
	// BaselineOnly strips the scenario's attack and comparison so the run
	// matches what the cluster backend can execute (clusters are
	// attack-free); cross-validation uses it on both sides.
	BaselineOnly bool
	// Engine, if non-nil, schedules the runs; nil lazily creates one engine
	// per backend so baselines memoize across points.
	Engine *experiment.Engine
}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// RunPoint implements Backend.
func (b *SimBackend) RunPoint(ctx context.Context, s *experiment.Scenario, o experiment.Options, cfg world.Config, pt experiment.Point) (experiment.PointResult, error) {
	if b.Engine == nil {
		b.Engine = experiment.NewEngine(0)
	}
	run := s
	if b.BaselineOnly {
		sc := *s
		sc.Attack = nil
		sc.Compare = false
		run = &sc
	}
	return run.RunPointOn(ctx, b.Engine, o, pt, cfg)
}

// ClusterBackend runs points on real in-process node clusters. It is
// inherently baseline-only: adversaries install themselves through simulator
// hooks that real nodes do not expose.
type ClusterBackend struct{}

// Name implements Backend.
func (b *ClusterBackend) Name() string { return "cluster" }

// RunPoint implements Backend.
func (b *ClusterBackend) RunPoint(ctx context.Context, s *experiment.Scenario, o experiment.Options, cfg world.Config, pt experiment.Point) (experiment.PointResult, error) {
	if s.RunPoint != nil {
		return experiment.PointResult{}, fmt.Errorf("harness: scenario %q has a custom point executor; the cluster backend only runs standard points", s.Name)
	}
	stats, err := RunCluster(ctx, cfg)
	if err != nil {
		return experiment.PointResult{}, fmt.Errorf("harness: scenario %q point %d: %w", s.Name, pt.Index, err)
	}
	return experiment.PointResult{Point: pt, Stats: stats}, nil
}

// RunScenario executes a registered scenario's full sweep grid on the given
// backend. Points run serially — a cluster is a real workload, and the sim
// engine already parallelizes within a point. override, if non-nil, adjusts
// each point's configuration after the scenario builds it (cross-validation
// uses it to shrink paper-scale populations to cluster scale; the same
// override must go to both backends for the comparison to mean anything).
func RunScenario(ctx context.Context, s *experiment.Scenario, o experiment.Options, b Backend, override func(*world.Config)) (*experiment.Result, error) {
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
