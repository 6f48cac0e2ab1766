// Package lockss is a from-scratch Go reproduction of the attrition-resistant
// LOCKSS peer-to-peer digital preservation system described in:
//
//	TJ Giuli, Petros Maniatis, Mary Baker, David S. H. Rosenthal, Mema
//	Roussopoulos. "Attrition Defenses for a Peer-to-Peer Digital
//	Preservation System." USENIX Annual Technical Conference, 2005.
//
// The library contains the full audit-and-repair protocol (opinion polls
// over replica hashes, block-level repair, discovery), the paper's three
// defense families (admission control with rate limits, first-hand
// reputation and effort balancing; desynchronization; redundancy), a
// deterministic discrete-event simulator with the paper's network and cost
// models, the three adversary classes of the evaluation, and a declarative
// scenario API: every figure and table of §7 is a registered Scenario, and
// arbitrary new experiments — config mutators, attack factories, sweep axes
// over any numeric parameter — register and run through the same engine,
// with context cancellation and structured (text/JSON/CSV) results.
//
// This package is the public facade: simulations, attacks and the scenario
// registry re-exported in one place. Examples live under examples/, the CLI
// under cmd/lockss-sim, and a real TCP-networked peer under cmd/lockss-node.
package lockss

import (
	"context"
	"io"

	"lockss/internal/adversary"
	"lockss/internal/experiment"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// Config sizes a simulated population; see DefaultConfig for the paper's
// operating point.
type Config = world.Config

// DefaultConfig returns the paper's §6.3 configuration: 100 peers, 50 AUs
// of 0.5 GB, 3-month polls, quorum 10, 2 simulated years.
func DefaultConfig() Config { return world.Default() }

// Duration re-exports the simulated time units.
type Duration = sim.Duration

// Convenient time units for configuring simulations.
const (
	Second = sim.Second
	Hour   = sim.Hour
	Day    = sim.Day
	Month  = sim.Month
	Year   = sim.Year
)

// Adversary is an attack strategy that can be installed on a simulation.
type Adversary = adversary.Adversary

// Defection selects where the brute-force adversary abandons the protocol.
type Defection = adversary.Defection

// Brute-force defection strategies (Table 1).
const (
	DefectIntro     = adversary.DefectIntro
	DefectRemaining = adversary.DefectRemaining
	DefectNone      = adversary.DefectNone
)

// NewPipeStoppage returns the network-level flooding adversary: repeated
// pulses suppressing all communication for a coverage fraction of peers.
func NewPipeStoppage(coverage float64, duration, recuperation Duration) Adversary {
	return &adversary.PipeStoppage{Pulse: adversary.Pulse{
		Coverage: coverage, Duration: duration, Recuperation: recuperation,
	}}
}

// NewAdmissionFlood returns the application-level garbage-invitation
// adversary targeting the admission control filter.
func NewAdmissionFlood(coverage float64, duration, recuperation Duration) Adversary {
	return &adversary.AdmissionFlood{Pulse: adversary.Pulse{
		Coverage: coverage, Duration: duration, Recuperation: recuperation,
	}}
}

// NewBruteForce returns the effortful adversary that passes admission
// control with valid introductory efforts and defects at the given stage.
func NewBruteForce(d Defection) Adversary {
	return &adversary.BruteForce{Defection: d}
}

// NewVoteFlood returns the vote-flood adversary (§5.1): unsolicited bogus
// votes, which the protocol ignores before any expensive processing. It
// exists to demonstrate the defense holds.
func NewVoteFlood(coverage float64, duration, recuperation Duration) Adversary {
	return &adversary.VoteFlood{Pulse: adversary.Pulse{
		Coverage: coverage, Duration: duration, Recuperation: recuperation,
	}}
}

// NewCombined installs several attack strategies at once (§9's combined-
// strategy question).
func NewCombined(parts ...Adversary) Adversary {
	return &adversary.Combined{Parts: parts}
}

// Results summarizes one simulation run.
type Results = experiment.RunStats

// Comparison relates an attack run to a baseline via the paper's four
// metrics.
type Comparison = experiment.Comparison

// Run executes one simulation on the process-wide worker pool. attack may
// be nil for a baseline run. The context cancels queued work promptly;
// in-flight simulation runs finish and are discarded.
func Run(ctx context.Context, cfg Config, attack func() Adversary) (Results, error) {
	return experiment.Run(ctx, cfg, attack, 1, 1)
}

// RunSeeds executes `seeds` runs with distinct seeds and averages; seeds
// must be at least 1.
func RunSeeds(ctx context.Context, cfg Config, attack func() Adversary, seeds int) (Results, error) {
	return experiment.Run(ctx, cfg, attack, seeds, 1)
}

// RunLayered stacks `layers` runs to model large collections (the paper's
// 600-AU layering technique); layers must be at least 1.
func RunLayered(ctx context.Context, cfg Config, attack func() Adversary, layers int) (Results, error) {
	return experiment.Run(ctx, cfg, attack, 1, layers)
}

// Compare derives access failure, delay ratio, friction and cost ratio.
func Compare(attack, baseline Results) Comparison {
	return experiment.Compare(attack, baseline)
}

// Scale selects experiment fidelity.
type Scale = experiment.Scale

// Experiment scales.
const (
	ScaleTiny  = experiment.ScaleTiny
	ScaleSmall = experiment.ScaleSmall
	ScalePaper = experiment.ScalePaper
)

// ExperimentOptions configures scenario generation.
type ExperimentOptions = experiment.Options

// Table is a renderable reproduction of one figure or table: typed cells
// with aligned-text (Fprint), JSON (WriteJSON) and CSV (WriteCSV) output.
type Table = experiment.Table

// Cell is one typed table cell.
type Cell = experiment.Cell

// --- The declarative scenario API -------------------------------------------

// Scenario declaratively specifies an experiment: base config, mutators,
// attack factory, sweep axes, seeds, layered points, and rendering.
type Scenario = experiment.Scenario

// Axis is one swept dimension of a scenario grid.
type Axis = experiment.Axis

// ConfigMutator adjusts a configuration in place.
type ConfigMutator = experiment.ConfigMutator

// Point identifies one cell of a scenario's sweep grid.
type Point = experiment.Point

// PointResult is the structured outcome of one grid cell.
type PointResult = experiment.PointResult

// ScenarioResult is a completed scenario run, one PointResult per cell.
type ScenarioResult = experiment.Result

// RegisterScenario adds a scenario to the process-wide registry.
func RegisterScenario(s *Scenario) error { return experiment.Register(s) }

// LookupScenario returns a registered scenario by name.
func LookupScenario(name string) (*Scenario, bool) { return experiment.Lookup(name) }

// Scenarios lists every registered scenario, sorted by name. The paper's
// figures, Table 1, the ablations and the §9 extensions are pre-registered.
func Scenarios() []*Scenario { return experiment.List() }

// RunScenario executes a scenario's sweep grid across the worker-pool
// engine and returns structured per-point results. The context cancels
// queued points promptly.
func RunScenario(ctx context.Context, s *Scenario, o ExperimentOptions) (*ScenarioResult, error) {
	return experiment.RunScenario(ctx, s, o)
}

// RunScenarioTables executes a scenario and renders its tables.
func RunScenarioTables(ctx context.Context, s *Scenario, o ExperimentOptions) ([]*Table, error) {
	return s.Run(ctx, o)
}

// PrintTable renders a table to w.
func PrintTable(w io.Writer, t *Table) { t.Fprint(w) }
