// Package experiment runs the paper's evaluation: baseline and attack
// scenarios, multi-seed averaging, the 600-AU layering technique, and one
// registered Scenario per figure/table of §7.
package experiment

import (
	"context"
	"math"

	"lockss/internal/adversary"
	"lockss/internal/effort"
	"lockss/internal/metrics"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// RunStats are the raw per-run ingredients of the paper's metrics, averaged
// across seeds.
type RunStats struct {
	// AccessFailure is the time-averaged fraction of damaged replicas.
	AccessFailure float64
	// MeanSuccessGap is the mean time between successful polls on a
	// replica, in days; math.Inf(1) when no gaps were observed.
	MeanSuccessGap float64
	// SuccessfulPolls counts successful polls.
	SuccessfulPolls float64
	// TotalPolls counts all concluded polls.
	TotalPolls float64
	// DefenderEffort is total loyal effort in effort-seconds.
	DefenderEffort float64
	// AttackerEffort is total adversary effort in effort-seconds.
	AttackerEffort float64
	// EffortPerPoll is DefenderEffort / SuccessfulPolls.
	EffortPerPoll float64
	// Alarms counts inconclusive-poll alarms.
	Alarms float64
	// DamageEvents and RepairsFixed count the damage process.
	DamageEvents float64
	RepairsFixed float64
	// Joined, Integrated, NewcomerPollsOK and NewcomerVotes are the
	// config's churn newcomers' world.JoinStats; zero without churn.
	Joined          float64 `json:",omitempty"`
	Integrated      float64 `json:",omitempty"`
	NewcomerPollsOK float64 `json:",omitempty"`
	NewcomerVotes   float64 `json:",omitempty"`
}

// Comparison relates an attack run to its baseline, yielding the paper's
// four metrics (§6.1).
type Comparison struct {
	Attack   RunStats
	Baseline RunStats
	// DelayRatio = attack mean success gap / baseline mean success gap.
	DelayRatio float64
	// Friction = attack effort-per-successful-poll / baseline.
	Friction float64
	// CostRatio = attacker effort / defender effort, during the attack run.
	CostRatio float64
}

// ProgressSink, when non-nil, receives periodic execution progress from
// every simulation run in the process — each seed and each layer: the
// reporting run's virtual time and executed events, every
// progressStride events. Set it before running anything (the CLI's -progress
// does); the callback must be thread-safe, since the worker pool executes
// runs concurrently.
var ProgressSink func(vt sim.Time, events uint64)

// progressStride is the reporting granularity of ProgressSink, in events.
var progressStride uint64 = 1 << 20

// runWorld is the one place a world is built and run. prepare, if non-nil,
// installs per-run state (background load, the adversary) before the run
// starts; ProgressSink, when set, is attached to every run.
func runWorld(cfg world.Config, prepare func(*world.World)) (*world.World, error) {
	w, err := world.New(cfg)
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(w)
	}
	if ProgressSink != nil {
		w.InstallProgress(progressStride, ProgressSink)
	}
	w.Run()
	return w, nil
}

// seedConfig is cfg at seed index s of a seed-averaged point.
func seedConfig(cfg world.Config, s int) world.Config {
	cfg.Seed += uint64(s) * 1_000_003
	return cfg
}

// statsFromWorld extracts the per-run metric ingredients of a finished run.
func statsFromWorld(w *world.World) RunStats {
	s := StatsOf(w.Metrics, w.DefenderEffort(), w.AdversaryLedger.Total)
	j := w.Joins
	s.Joined, s.Integrated = float64(j.Joined), float64(j.Integrated)
	s.NewcomerPollsOK, s.NewcomerVotes = float64(j.NewcomerPollsOK), float64(j.NewcomerVotes)
	return s
}

// StatsOf extracts the per-run metric ingredients from a finalized collector
// and the two sides' effort totals. The simulator and the real-node cluster
// backend both report through it.
func StatsOf(m *metrics.Collector, defender, attacker effort.Seconds) RunStats {
	var s RunStats
	s.AccessFailure = m.AccessFailureProbability()
	if gap, ok := m.MeanSuccessInterval(); ok {
		s.MeanSuccessGap = gap / float64(sim.Day)
	} else {
		s.MeanSuccessGap = math.Inf(1)
	}
	s.SuccessfulPolls = float64(m.SuccessfulPolls())
	s.TotalPolls = float64(m.TotalPolls())
	s.DefenderEffort = float64(defender)
	s.AttackerEffort = float64(attacker)
	if s.SuccessfulPolls > 0 {
		s.EffortPerPoll = s.DefenderEffort / s.SuccessfulPolls
	}
	s.Alarms = float64(m.Alarms)
	s.DamageEvents = float64(m.DamageEvents)
	s.RepairsFixed = float64(m.RepairsFixed)
	return s
}

// average combines runs arithmetically (Inf gaps propagate).
func average(runs []RunStats) RunStats {
	var out RunStats
	n := float64(len(runs))
	if n == 0 {
		return out
	}
	for _, r := range runs {
		out.AccessFailure += r.AccessFailure / n
		out.MeanSuccessGap += r.MeanSuccessGap / n
		out.SuccessfulPolls += r.SuccessfulPolls / n
		out.TotalPolls += r.TotalPolls / n
		out.DefenderEffort += r.DefenderEffort / n
		out.AttackerEffort += r.AttackerEffort / n
		out.EffortPerPoll += r.EffortPerPoll / n
		out.Alarms += r.Alarms / n
		out.DamageEvents += r.DamageEvents / n
		out.RepairsFixed += r.RepairsFixed / n
		out.Joined += r.Joined / n
		out.Integrated += r.Integrated / n
		out.NewcomerPollsOK += r.NewcomerPollsOK / n
		out.NewcomerVotes += r.NewcomerVotes / n
	}
	return out
}

// Run executes cfg on the process-wide worker pool: seeds consecutive
// derived seeds, each a stack of layers runs, averaged (see Engine.Run).
// mkAttack may be nil for a baseline. The context cancels queued runs.
func Run(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, seeds, layers int) (RunStats, error) {
	return newSharedEngine().Run(ctx, cfg, mkAttack, seeds, layers)
}

// Compare derives the paper's ratio metrics.
func Compare(attack, baseline RunStats) Comparison {
	c := Comparison{Attack: attack, Baseline: baseline}
	if baseline.MeanSuccessGap > 0 && !math.IsInf(attack.MeanSuccessGap, 1) {
		c.DelayRatio = attack.MeanSuccessGap / baseline.MeanSuccessGap
	} else if math.IsInf(attack.MeanSuccessGap, 1) {
		c.DelayRatio = math.Inf(1)
	}
	if baseline.EffortPerPoll > 0 {
		c.Friction = attack.EffortPerPoll / baseline.EffortPerPoll
	}
	if attack.DefenderEffort > 0 {
		c.CostRatio = attack.AttackerEffort / attack.DefenderEffort
	}
	return c
}

// Scale selects the fidelity/runtime trade-off for figure generation.
type Scale int

const (
	// ScaleTiny: seconds per figure; for benchmarks and CI. Shapes hold but
	// variance is high.
	ScaleTiny Scale = iota
	// ScaleSmall: minutes per figure; the CLI default.
	ScaleSmall
	// ScalePaper: the paper's §6.3 operating point; expect long runtimes.
	ScalePaper
	// ScaleLarge: a ~5k-peer population for capacity work. Cold bootstrap
	// (no O(Peers²) acquaintance seeding), few small AUs, short horizon.
	ScaleLarge
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	case ScaleLarge:
		return "large"
	}
	return "invalid"
}

// Options configures figure generation.
type Options struct {
	Scale Scale
	// Seeds overrides the scale's default seed count when positive.
	Seeds int
	// BaseSeed offsets all run seeds.
	BaseSeed uint64
	// Progress, if non-nil, receives one line per completed data point.
	// Lines are delivered in deterministic (serial) order regardless of
	// the engine's worker count.
	Progress func(format string, args ...any)
	// Engine, if non-nil, schedules this generation's simulation runs.
	// Share one Engine across scenarios to reuse memoized runs (the CLI
	// does); when nil each scenario run gets a fresh engine sized to
	// GOMAXPROCS.
	Engine *Engine
}

// engine returns the configured engine or a fresh one on the process-wide
// worker pool. Generators call it once per generation so memoized baselines
// are shared at least within one figure.
func (o Options) engine() *Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return newSharedEngine()
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	switch o.Scale {
	case ScalePaper:
		return 3
	case ScaleSmall:
		return 2
	default:
		return 1
	}
}

// BaseWorld returns the population config the Options select: the scale's
// population shape, seeded from BaseSeed. Scenario Base functions and
// capacity benchmarks use it as their starting point.
func (o Options) BaseWorld() world.Config {
	cfg := world.Default()
	cfg.Seed = 1 + o.BaseSeed
	switch o.Scale {
	case ScalePaper:
		// Paper §6.3: 100 peers, 50 AUs/layer, 0.5 GB AUs, 2 years.
	case ScaleSmall:
		cfg.Peers = 40
		cfg.AUs = 10
		cfg.AUSize = 256 << 20
		cfg.Duration = 2 * sim.Year
	case ScaleLarge:
		cfg.Peers = 5000
		cfg.AUs = 2
		cfg.AUSize = 16 << 20
		cfg.Duration = sim.Year / 4
		cfg.SeedAllEven = false // O(Peers²·AUs) — prohibitive at this size
	default: // ScaleTiny
		cfg.Peers = 25
		cfg.AUs = 4
		cfg.AUSize = 64 << 20
		cfg.Duration = 1 * sim.Year
	}
	return cfg
}

// layersFor returns how many 1x-AU layers represent the "large collection"
// (600 AUs in the paper) at this scale.
func (o Options) layersFor() int {
	switch o.Scale {
	case ScalePaper:
		return 12 // 12 x 50 = 600 AUs
	case ScaleSmall:
		return 4
	default:
		return 3
	}
}
