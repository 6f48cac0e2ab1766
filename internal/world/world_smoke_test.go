package world

import (
	"testing"

	"lockss/internal/protocol"
	"lockss/internal/sim"
)

// TestSmokeBaseline runs a small population with damage and checks that the
// system audits and repairs: most polls succeed, damage gets fixed, and the
// access failure probability stays near the analytic expectation.
func TestSmokeBaseline(t *testing.T) {
	cfg := Default()
	cfg.Peers = 30
	cfg.AUs = 4
	cfg.AUSize = 64 << 20
	cfg.Duration = 2 * sim.Year
	cfg.DamageDiskYears = 1 // high damage rate for signal
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()

	m := w.Metrics
	t.Logf("events=%d polls=%v alarms=%d damage=%d repaired=%d votes=%d afp=%.2e",
		w.Engine.Executed, m.Polls, m.Alarms, m.DamageEvents, m.RepairsFixed, m.VotesSupplied, m.AccessFailureProbability())
	t.Logf("defender effort by kind: %v", effortByKind(w))
	if gap, ok := m.MeanSuccessInterval(); ok {
		t.Logf("mean success interval: %.1f days", gap/float64(24*3600*1e9))
	}

	succ := m.Polls[protocol.OutcomeSuccess]
	total := m.TotalPolls()
	if total == 0 {
		t.Fatal("no polls concluded")
	}
	if float64(succ)/float64(total) < 0.8 {
		t.Errorf("success rate %.2f too low (succ=%d total=%d inq=%d inc=%d rf=%d)",
			float64(succ)/float64(total), succ, total,
			m.Polls[protocol.OutcomeInquorate], m.Polls[protocol.OutcomeInconclusive], m.Polls[protocol.OutcomeRepairFailed])
	}
	if m.DamageEvents == 0 {
		t.Fatal("damage process did not fire")
	}
	if m.RepairsFixed == 0 {
		t.Error("no damage was ever repaired")
	}
	if m.DamagedNow() > int(m.DamageEvents)/2 {
		t.Errorf("too many replicas still damaged at end: %d of %d events", m.DamagedNow(), m.DamageEvents)
	}
}
