package experiment

import (
	"fmt"

	"lockss/internal/adversary"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// The paper's figures and tables, each expressed as a registered Scenario:
// the sweep grid, attack factory and rendering are declarative data.

// PaperScenarios returns the paper's evaluation in paper order: Figure 2,
// Figures 3-5, Figures 6-8, Table 1, then the five ablations and the three
// §9 extensions. It is what lockss-sim runs when no scenario is named, and
// the order the tiny-scale goldens concatenate in.
func PaperScenarios() []*Scenario {
	return []*Scenario{
		scenarioFigure2,
		scenarioPipeStoppage,
		scenarioAdmissionFlood,
		scenarioTable1,
		scenarioAblationRefractory,
		scenarioAblationDropProb,
		scenarioAblationIntroductions,
		scenarioAblationDesynchronization,
		scenarioAblationEffortBalancing,
		scenarioExtensionChurn,
		scenarioExtensionAdaptive,
		scenarioExtensionCombined,
	}
}

// --- Figure 2: baseline access failure vs inter-poll interval -------------

// figure2Intervals returns the x axis (months) per scale.
func (o Options) figure2Intervals() []int {
	switch o.Scale {
	case ScalePaper:
		return []int{2, 3, 4, 5, 6, 8, 10, 12}
	case ScaleSmall:
		return []int{2, 3, 6, 9, 12}
	default:
		return []int{2, 3, 6, 12}
	}
}

// figure2MTBFs returns the storage-failure series (disk-years) per scale.
func (o Options) figure2MTBFs() []float64 {
	switch o.Scale {
	case ScalePaper:
		return []float64{1, 2, 3, 4, 5}
	case ScaleSmall:
		return []float64{1, 3, 5}
	default:
		return []float64{1, 5}
	}
}

// figure2LargeMTBFs is the subset of storage-failure rates the paper plots
// for the layered large collection.
var figure2LargeMTBFs = []float64{1, 5}

// collectionLabel renders the paper's collection-size labels.
func collectionLabel(o Options, layered bool) string {
	aus := o.BaseWorld().AUs
	if layered {
		return fmt.Sprintf("%d AUs (layered)", aus*o.layersFor())
	}
	return fmt.Sprintf("%d AUs", aus)
}

func intsToFloats(vs []int) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

func durationsToDays(ds []sim.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d / sim.Day)
	}
	return out
}

// days converts a day-denominated axis value back to simulated time.
func days(v float64) sim.Duration { return sim.Duration(v) * sim.Day }

// scenarioFigure2 reproduces the baseline: mean access failure probability
// for increasing inter-poll intervals at varying mean times between storage
// failures, for the small and the layered large collection, absent attack.
var scenarioFigure2 = mustRegister(&Scenario{
	Name:        "figure2",
	Description: "Figure 2: baseline access failure vs inter-poll interval (no attack)",
	Axes: []Axis{
		{Name: "collection", Values: []float64{0, 1}},
		{
			Name:      "interval(mo)",
			ValuesFor: func(o Options) []float64 { return intsToFloats(o.figure2Intervals()) },
			Apply: func(cfg *world.Config, v float64) {
				cfg.Protocol.PollInterval = sim.Duration(v) * sim.Month
				cfg.Protocol.GradeDecay = cfg.Protocol.PollInterval
			},
		},
		{
			Name:      "mtbf(disk-yr)",
			ValuesFor: func(o Options) []float64 { return o.figure2MTBFs() },
			Apply:     func(cfg *world.Config, v float64) { cfg.DamageDiskYears = v },
		},
	},
	// The paper plots the layered large collection only at 1 and 5
	// disk-years.
	Filter: func(o Options, pt Point) bool {
		if pt.At(0) == 0 {
			return true
		}
		for _, m := range figure2LargeMTBFs {
			if pt.At(2) == m {
				return true
			}
		}
		return false
	},
	Layered: func(o Options, pt Point) bool { return pt.At(0) != 0 },
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:      "Figure 2",
			Title:   "Access failure probability vs inter-poll interval (no attack)",
			Columns: []string{"interval(mo)", "mtbf(disk-yr)", "collection", "access-failure", "polls-ok"},
		}
		intervals := o.figure2Intervals()
		mtbfs := o.figure2MTBFs()
		row := func(pr *PointResult, layered bool) {
			t.AddCells(Int(int(pr.Point.At(1))), Num("%.0f", pr.Point.At(2)),
				Str(collectionLabel(o, layered)), Prob(pr.Stats.AccessFailure),
				Num("%.0f", pr.Stats.SuccessfulPolls))
		}
		for i := range intervals {
			for j := range mtbfs {
				row(res.At(0, i, j), false)
			}
		}
		// Large-collection curves, storage-failure series major like the
		// paper's legend.
		for _, m := range figure2LargeMTBFs {
			for j, v := range mtbfs {
				if v != m {
					continue
				}
				for i := range intervals {
					row(res.At(1, i, j), true)
				}
			}
		}
		t.Notes = append(t.Notes,
			"paper: afp rises with the inter-poll interval; ~4.8e-4 at 3mo/5y (50 AUs), 5.2e-4 (600 AUs)")
		return []*Table{t}
	},
})

// --- Figures 3-5 and 6-8: pulsed attack sweeps ------------------------------

func (o Options) stoppageDurations() []sim.Duration {
	switch o.Scale {
	case ScalePaper:
		return []sim.Duration{1 * sim.Day, 5 * sim.Day, 10 * sim.Day, 30 * sim.Day, 60 * sim.Day, 90 * sim.Day, 180 * sim.Day}
	case ScaleSmall:
		return []sim.Duration{5 * sim.Day, 30 * sim.Day, 90 * sim.Day, 180 * sim.Day}
	default:
		return []sim.Duration{5 * sim.Day, 30 * sim.Day, 90 * sim.Day}
	}
}

func (o Options) floodDurations() []sim.Duration {
	switch o.Scale {
	case ScalePaper:
		return []sim.Duration{1 * sim.Day, 5 * sim.Day, 10 * sim.Day, 30 * sim.Day, 90 * sim.Day, 180 * sim.Day, 720 * sim.Day}
	case ScaleSmall:
		return []sim.Duration{5 * sim.Day, 30 * sim.Day, 180 * sim.Day, 720 * sim.Day}
	default:
		return []sim.Duration{10 * sim.Day, 90 * sim.Day, 360 * sim.Day}
	}
}

func (o Options) coverages() []float64 {
	switch o.Scale {
	case ScalePaper:
		return []float64{0.1, 0.4, 0.7, 1.0}
	case ScaleSmall:
		return []float64{0.1, 0.4, 1.0}
	default:
		return []float64{0.4, 1.0}
	}
}

// sweepSeries resolves one series index of an attack sweep: its coverage
// fraction and its label. The index past the coverages is the layered large
// collection at full coverage.
func sweepSeries(o Options, idx int) (cov float64, label string) {
	covs := o.coverages()
	if idx < len(covs) {
		return covs[idx], fmtSeries(covs[idx])
	}
	base := o.BaseWorld()
	return 1.0, fmt.Sprintf("100%% %dAUs", base.AUs*o.layersFor())
}

// sweepIsLayered flags the extra large-collection series of a sweep grid.
func sweepIsLayered(o Options, pt Point) bool {
	return int(pt.At(0)) == len(o.coverages())
}

// attackSweepScenario builds the shared shape of the pulsed-attack figures
// (3-5 pipe stoppage, 6-8 admission flood): a (series, attack-days) grid —
// the series are the paper's coverage fractions plus the layered large
// collection at full coverage — with every point compared against the
// shared memoized baseline.
func attackSweepScenario(name, desc string, durations func(o Options) []float64,
	mk func(cov float64, dur sim.Duration) adversary.Adversary,
	ids, titles [3]string, notes [3][]string) *Scenario {

	return mustRegister(&Scenario{
		Name:        name,
		Description: desc,
		Axes: []Axis{
			{
				Name: "series",
				ValuesFor: func(o Options) []float64 {
					vs := make([]float64, len(o.coverages())+1)
					for i := range vs {
						vs[i] = float64(i)
					}
					return vs
				},
			},
			{Name: "attack-days", ValuesFor: durations},
		},
		Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
			cov, _ := sweepSeries(o, int(pt.At(0)))
			return mk(cov, days(pt.At(1)))
		},
		Layered: sweepIsLayered,
		Compare: true,
		Tables: func(o Options, res *Result) []*Table {
			metrics := [3]func(c Comparison) Cell{
				func(c Comparison) Cell { return Prob(c.Attack.AccessFailure) },
				func(c Comparison) Cell { return Ratio(c.DelayRatio) },
				func(c Comparison) Cell { return Ratio(c.Friction) },
			}
			cols := [3]string{"access-failure", "delay-ratio", "coeff-friction"}
			out := make([]*Table, 3)
			for i := range out {
				t := &Table{ID: ids[i], Title: titles[i],
					Columns: []string{"coverage", "attack-days", cols[i]}}
				for p := range res.Points {
					pr := &res.Points[p]
					_, label := sweepSeries(o, int(pr.Point.At(0)))
					t.AddCells(Str(label), Int(int(pr.Point.At(1))), metrics[i](*pr.Cmp))
				}
				t.Notes = append(t.Notes, notes[i]...)
				out[i] = t
			}
			return out
		},
	})
}

// scenarioPipeStoppage reproduces Figures 3, 4 and 5: access failure
// probability, delay ratio and coefficient of friction under repeated pipe
// stoppage of varying duration and coverage.
var scenarioPipeStoppage = attackSweepScenario(
	"figures-pipe-stoppage",
	"Figures 3-5: access failure, delay ratio and friction under pipe stoppage",
	func(o Options) []float64 { return durationsToDays(o.stoppageDurations()) },
	func(cov float64, dur sim.Duration) adversary.Adversary {
		return &adversary.PipeStoppage{Pulse: adversary.Pulse{
			Coverage: cov, Duration: dur, Recuperation: 30 * sim.Day,
		}}
	},
	[3]string{"Figure 3", "Figure 4", "Figure 5"},
	[3]string{
		"Access failure probability under pipe stoppage",
		"Delay ratio under pipe stoppage",
		"Coefficient of friction under pipe stoppage",
	},
	[3][]string{
		{"paper: ~2.9e-3 at 100% coverage, 180-day attacks, 600 AUs; rises with coverage and duration"},
		{"paper: attacks must last 60+ days to raise the delay ratio by an order of magnitude"},
		{"paper: negligible for short attacks; up to ~10 for long ones"},
	},
)

// scenarioAdmissionFlood reproduces Figures 6, 7 and 8: the admission-
// control adversary's garbage invitations from unknown identities.
var scenarioAdmissionFlood = attackSweepScenario(
	"figures-admission-flood",
	"Figures 6-8: access failure, delay ratio and friction under admission-control flood",
	func(o Options) []float64 { return durationsToDays(o.floodDurations()) },
	func(cov float64, dur sim.Duration) adversary.Adversary {
		return &adversary.AdmissionFlood{Pulse: adversary.Pulse{
			Coverage: cov, Duration: dur, Recuperation: 30 * sim.Day,
		}}
	},
	[3]string{"Figure 6", "Figure 7", "Figure 8"},
	[3]string{
		"Access failure probability under admission-control attack",
		"Delay ratio under admission-control attack",
		"Coefficient of friction under admission-control attack",
	},
	[3][]string{
		{"paper: little effect; up to ~5.9e-4 at full coverage for the whole run (600 AUs)"},
		nil,
		{"paper: sustained attacks can raise the cost per successful poll by ~33%"},
	},
)

// --- Table 1: brute-force defection strategies -----------------------------

// table1Defections orders the brute-force strategies as the paper's rows.
var table1Defections = []adversary.Defection{
	adversary.DefectIntro, adversary.DefectRemaining, adversary.DefectNone,
}

// scenarioTable1 reproduces the brute-force adversary defecting at INTRO,
// REMAINING and NONE, for the small and layered large collections.
var scenarioTable1 = mustRegister(&Scenario{
	Name:        "table1",
	Description: "Table 1: brute-force adversary defection strategies",
	Axes: []Axis{
		{
			Name:   "defection",
			Values: []float64{0, 1, 2},
			Format: func(v float64) string { return table1Defections[int(v)].String() },
		},
		{Name: "collection", Values: []float64{0, 1}},
	},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		return &adversary.BruteForce{Defection: table1Defections[int(pt.At(0))]}
	},
	Layered: func(o Options, pt Point) bool { return pt.At(1) != 0 },
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:    "Table 1",
			Title: "Brute-force adversary defection strategies (continuous attack, all peers)",
			Columns: []string{"defection", "collection", "coeff-friction", "cost-ratio",
				"delay-ratio", "access-failure"},
		}
		for d := range table1Defections {
			for c := 0; c < 2; c++ {
				pr := res.At(d, c)
				t.AddCells(Str(table1Defections[d].String()), Str(collectionLabel(o, c == 1)),
					Ratio(pr.Cmp.Friction), Ratio(pr.Cmp.CostRatio),
					Ratio(pr.Cmp.DelayRatio), Prob(pr.Stats.AccessFailure))
			}
		}
		t.Notes = append(t.Notes,
			"paper (50 AUs): INTRO 1.40/1.93/1.11/5.0e-4, REMAINING 2.61/1.55/1.11/5.9e-4, NONE 2.60/1.02/1.11/5.6e-4",
			"shape: friction INTRO < REMAINING ~= NONE; access failure within ~1.3x of baseline for all strategies")
		return []*Table{t}
	},
})

// fmtSeries formats a coverage fraction as the paper's series label.
func fmtSeries(coverage float64) string {
	return fmt.Sprintf("%.0f%%", coverage*100)
}
