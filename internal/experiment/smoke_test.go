package experiment

import (
	"testing"

	"lockss/internal/adversary"
	"lockss/internal/sim"
)

// TestAttackSmoke checks the qualitative shape of each adversary's effect at
// tiny scale: attacks hurt in the direction the paper predicts.
func TestAttackSmoke(t *testing.T) {
	o := Options{Scale: ScaleTiny}
	cfg := o.BaseWorld()
	cfg.DamageDiskYears = 1 // strong damage signal

	baseline, err := runOne(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: afp=%.2e gap=%.1fd effort/poll=%.0f polls=%v/%v",
		baseline.AccessFailure, baseline.MeanSuccessGap, baseline.EffortPerPoll,
		baseline.SuccessfulPolls, baseline.TotalPolls)

	stop, err := runOne(cfg, func() adversary.Adversary {
		return &adversary.PipeStoppage{Pulse: adversary.Pulse{Coverage: 1, Duration: 90 * sim.Day, Recuperation: 30 * sim.Day}}
	})
	if err != nil {
		t.Fatal(err)
	}
	cmpStop := Compare(stop, baseline)
	t.Logf("pipe-stoppage 100%%/90d: afp=%.2e delay=%.2f friction=%.2f polls=%v/%v",
		stop.AccessFailure, cmpStop.DelayRatio, cmpStop.Friction, stop.SuccessfulPolls, stop.TotalPolls)
	if stop.AccessFailure <= baseline.AccessFailure {
		t.Errorf("pipe stoppage should raise access failure: %.2e <= %.2e", stop.AccessFailure, baseline.AccessFailure)
	}
	if cmpStop.DelayRatio <= 1.1 {
		t.Errorf("pipe stoppage 100%%/90d should raise delay ratio well above 1, got %.2f", cmpStop.DelayRatio)
	}

	flood, err := runOne(cfg, func() adversary.Adversary {
		return &adversary.AdmissionFlood{Pulse: adversary.Pulse{Coverage: 1, Duration: cfg.Duration, Recuperation: 30 * sim.Day}}
	})
	if err != nil {
		t.Fatal(err)
	}
	cmpFlood := Compare(flood, baseline)
	t.Logf("admission-flood: afp=%.2e delay=%.2f friction=%.2f polls=%v/%v",
		flood.AccessFailure, cmpFlood.DelayRatio, cmpFlood.Friction, flood.SuccessfulPolls, flood.TotalPolls)
	if flood.SuccessfulPolls < baseline.SuccessfulPolls*0.7 {
		t.Errorf("admission flood should have little effect on poll success: %v vs %v",
			flood.SuccessfulPolls, baseline.SuccessfulPolls)
	}

	for _, d := range []adversary.Defection{adversary.DefectIntro, adversary.DefectRemaining, adversary.DefectNone} {
		d := d
		bf, err := runOne(cfg, func() adversary.Adversary { return &adversary.BruteForce{Defection: d} })
		if err != nil {
			t.Fatal(err)
		}
		c := Compare(bf, baseline)
		t.Logf("brute-force %v: afp=%.2e delay=%.2f friction=%.2f cost=%.2f attacker=%.0f polls=%v/%v",
			d, bf.AccessFailure, c.DelayRatio, c.Friction, c.CostRatio, bf.AttackerEffort,
			bf.SuccessfulPolls, bf.TotalPolls)
		if bf.AttackerEffort == 0 {
			t.Errorf("brute force %v: attacker spent no effort", d)
		}
		if bf.SuccessfulPolls < baseline.SuccessfulPolls*0.6 {
			t.Errorf("brute force %v should not collapse polls: %v vs %v", d, bf.SuccessfulPolls, baseline.SuccessfulPolls)
		}
	}
}
