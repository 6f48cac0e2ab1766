package experiment

import (
	"math"

	"lockss/internal/adversary"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// Extension experiments beyond the paper's evaluation, covering its §9
// future-work agenda: dynamic populations (churn), adaptive acceptance, and
// combined adversary strategies — each a registered Scenario.

// churnNames labels the churn scenario axis.
var churnNames = []string{"no attack", "admission flood"}

// scenarioExtensionChurn studies newcomers joining a running network,
// absent attack and under a sustained admission-control flood (which keeps
// victims' refractory periods triggered — exactly the condition that makes
// cold integration hard and that introductions were designed to relieve).
// Churn is part of the config, so every run reports its newcomers in
// RunStats.
var scenarioExtensionChurn = mustRegister(&Scenario{
	Name:        "extension-churn",
	Description: "Extension E1: dynamic population, newcomers joining over time (§9 future work)",
	Base: func(o Options) world.Config {
		cfg := o.BaseWorld()
		cfg.DamageDiskYears = 5
		cfg.Churn = world.Churn{JoinPerYear: 8, MaxJoins: 8, FriendsPerJoiner: 4}
		if o.Scale == ScalePaper {
			cfg.Churn = world.Churn{JoinPerYear: 12, MaxJoins: 20, FriendsPerJoiner: 5}
		}
		return cfg
	},
	Axes: []Axis{{
		Name:   "scenario",
		Values: []float64{0, 1},
		Format: func(v float64) string { return churnNames[int(v)] },
	}},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		if int(pt.At(0)) == 1 {
			return sustainedFlood(cfg)
		}
		return nil
	},
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:    "Extension E1",
			Title: "Dynamic population: newcomers joining over time (§9 future work)",
			Columns: []string{"scenario", "joined", "integrated", "newcomer-polls-ok",
				"newcomer-votes", "access-failure"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			t.AddCells(Str(churnNames[int(pr.Point.At(0))]),
				Num("%.1f", pr.Stats.Joined), Num("%.1f", pr.Stats.Integrated),
				Num("%.0f", pr.Stats.NewcomerPollsOK), Num("%.0f", pr.Stats.NewcomerVotes),
				Prob(pr.Stats.AccessFailure))
		}
		t.Notes = append(t.Notes,
			"newcomers integrate through mutual friends, discovery nominations and introductions",
			"the admission flood slows but does not prevent integration (friends bypass the refractory period)")
		return []*Table{t}
	},
})

// scenarioExtensionAdaptive evaluates §9's adaptive-acceptance idea against
// the brute-force REMAINING attack: victims modulate acceptance of unknown/
// in-debt invitations by recent busyness.
var scenarioExtensionAdaptive = mustRegister(&Scenario{
	Name:        "extension-adaptive",
	Description: "Extension E2: adaptive acceptance vs brute-force REMAINING (§9 future work)",
	Mutators: []ConfigMutator{func(cfg *world.Config) {
		cfg.Protocol.AdaptiveGain = 5
		// Adaptive acceptance is keyed on busyness; make compute expensive
		// (as with very large collections) so busyness is a real signal.
		cfg.Costs.HashBytesPerSec = 16 << 10
	}},
	Axes: []Axis{boolAxis("adaptive", []bool{false, true},
		func(cfg *world.Config, on bool) { cfg.Protocol.AdaptiveAcceptance = on })},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		return bruteRemaining()
	},
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:    "Extension E2",
			Title: "Adaptive acceptance vs brute-force REMAINING (§9 future work)",
			Columns: []string{"adaptive", "coeff-friction", "cost-ratio", "delay-ratio",
				"victim-votes-wasted"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			wasted := pr.Stats.DefenderEffort - pr.Baseline.DefenderEffort
			if wasted < 0 || math.IsNaN(wasted) {
				wasted = 0
			}
			t.AddCells(Bool(pr.Point.At(0) != 0), Ratio(pr.Cmp.Friction), Ratio(pr.Cmp.CostRatio),
				Ratio(pr.Cmp.DelayRatio), Num("%.0f", wasted))
		}
		t.Notes = append(t.Notes,
			"adaptive acceptance raises the attacker's marginal cost of keeping victims busy (§9)")
		return []*Table{t}
	},
})

// combinedParts builds the §9 combined-strategy attack roster: a pipe
// stoppage softening communication and a brute-force REMAINING attacker
// draining compute, alone and together.
var combinedNames = []string{"baseline", "pipe stoppage 70%/60d", "brute force REMAINING", "combined"}

func combinedStoppage() adversary.Adversary {
	return &adversary.PipeStoppage{Pulse: adversary.Pulse{
		Coverage: 0.7, Duration: 60 * sim.Day, Recuperation: 30 * sim.Day,
	}}
}

// scenarioExtensionCombined studies §9's third question: does an attrition
// attack compose with another to weaken the system more than either alone?
var scenarioExtensionCombined = mustRegister(&Scenario{
	Name:        "extension-combined",
	Description: "Extension E3: combined adversary strategies (§9 future work)",
	Mutators:    []ConfigMutator{func(cfg *world.Config) { cfg.DamageDiskYears = 1 }}, // strong damage signal
	Axes: []Axis{{
		Name:   "attack",
		Values: []float64{0, 1, 2, 3},
		Format: func(v float64) string { return combinedNames[int(v)] },
	}},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		switch int(pt.At(0)) {
		case 1:
			return combinedStoppage()
		case 2:
			return bruteRemaining()
		case 3:
			return &adversary.Combined{Parts: []adversary.Adversary{combinedStoppage(), bruteRemaining()}}
		}
		return nil // the baseline row compares the memoized baseline to itself
	},
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:    "Extension E3",
			Title: "Combined adversary strategies (§9 future work)",
			Columns: []string{"attack", "access-failure", "delay-ratio", "coeff-friction",
				"polls-ok"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			t.AddCells(Str(combinedNames[int(pr.Point.At(0))]), Prob(pr.Stats.AccessFailure),
				Ratio(pr.Cmp.DelayRatio), Ratio(pr.Cmp.Friction),
				Num("%.0f", pr.Stats.SuccessfulPolls))
		}
		t.Notes = append(t.Notes,
			"redundancy and rate limits keep the combination roughly additive: the stoppage dominates damage, the brute force dominates friction")
		return []*Table{t}
	},
})
