package metrics

import (
	"math"
	"testing"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

func reg(c *Collector, n int) []*content.SimReplica {
	spec := content.AUSpec{ID: 1, Name: "m", Size: 4096, BlockSize: 1024}
	out := make([]*content.SimReplica, n)
	for i := 0; i < n; i++ {
		out[i] = content.NewSimReplica(spec, uint64(i+1))
		c.RegisterReplica(1, content.AUID(i+1), out[i]) // one peer, n AUs
	}
	return out
}

func TestAccessFailureIntegral(t *testing.T) {
	c := NewCollectorSized(0)
	rs := reg(c, 4)
	// Damage replica 0 at t=100; repair at t=300; horizon 1000.
	rs[0].Damage(0)
	c.OnDamage(1, 1, 100)
	if c.DamagedNow() != 1 {
		t.Fatal("damage not tracked")
	}
	rs[0].ApplyRepair(0, mustRepairData(t, rs[1], 0))
	c.RepairApplied(1, 1, 7, 0, 300)
	if c.DamagedNow() != 0 {
		t.Fatal("repair not tracked")
	}
	c.Finalize(1000)
	// One replica damaged for 200 of 4*1000 replica-time.
	want := 200.0 / 4000.0
	if got := c.AccessFailureProbability(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AFP = %v, want %v", got, want)
	}
}

func mustRepairData(t *testing.T, r content.Replica, block int) []byte {
	t.Helper()
	d, err := r.RepairBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPartialRepairKeepsDamaged(t *testing.T) {
	c := NewCollectorSized(0)
	rs := reg(c, 2)
	rs[0].Damage(0)
	rs[0].Damage(1)
	c.OnDamage(1, 1, 100)
	rs[0].ApplyRepair(0, mustRepairData(t, rs[1], 0))
	c.RepairApplied(1, 1, 7, 0, 200)
	if c.DamagedNow() != 1 {
		t.Error("partially repaired replica should stay damaged")
	}
	if c.RepairsFixed != 0 {
		t.Error("partial repair counted as fixed")
	}
	rs[0].ApplyRepair(1, mustRepairData(t, rs[1], 1))
	c.RepairApplied(1, 1, 7, 1, 300)
	if c.DamagedNow() != 0 || c.RepairsFixed != 1 {
		t.Error("full repair not registered")
	}
}

func TestMeanSuccessIntervalRenewal(t *testing.T) {
	c := NewCollectorSized(0)
	reg(c, 2) // 2 replicas
	day := sched.Time(24 * 3600 * 1e9)
	c.PollConcluded(1, 1, 7, protocol.OutcomeSuccess, 80*day, 90*day)
	c.PollConcluded(1, 1, 8, protocol.OutcomeSuccess, 170*day, 180*day)
	c.PollConcluded(1, 2, 9, protocol.OutcomeSuccess, 90*day, 100*day)
	c.PollConcluded(1, 2, 10, protocol.OutcomeInquorate, 180*day, 190*day)
	c.Finalize(360 * day)
	// Renewal estimator: 2 replicas x 360 days / 3 successes = 240 days.
	got, ok := c.MeanSuccessInterval()
	if !ok {
		t.Fatal("no interval")
	}
	want := float64(2*360*day) / 3
	if math.Abs(got-want) > 1 {
		t.Errorf("renewal mean = %v, want %v", got, want)
	}
}

func TestNoSuccesses(t *testing.T) {
	c := NewCollectorSized(0)
	reg(c, 2)
	c.PollConcluded(1, 1, 7, protocol.OutcomeInquorate, 50, 100)
	c.Finalize(1000)
	if _, ok := c.MeanSuccessInterval(); ok {
		t.Error("interval reported with zero successes")
	}
	if c.SuccessfulPolls() != 0 || c.TotalPolls() != 1 {
		t.Error("poll counters wrong")
	}
}

func TestAlarmsAndCounts(t *testing.T) {
	c := NewCollectorSized(0)
	reg(c, 1)
	c.Alarm(1, 1, 7, 10)
	c.Alarm(1, 1, 7, 20)
	c.PollConcluded(1, 1, 7, protocol.OutcomeInconclusive, 10, 20)
	c.VoteSupplied(2, 1, 1, 7, 5)
	c.Finalize(100)
	if c.Alarms != 2 || c.VotesSupplied != 1 {
		t.Errorf("counters: alarms=%d votes=%d", c.Alarms, c.VotesSupplied)
	}
	if c.Polls[protocol.OutcomeInconclusive] != 1 {
		t.Error("inconclusive poll not counted")
	}
}

func TestAccessFailureEmptyCollector(t *testing.T) {
	c := NewCollectorSized(0)
	c.Finalize(1000)
	if c.AccessFailureProbability() != 0 {
		t.Error("empty collector should report zero AFP")
	}
}

// TestRebase: a run timed from a non-zero origin (a cluster's wall clock),
// rebased before Finalize, reports what the same run timed from zero does —
// including a damage interval still open at the horizon.
func TestRebase(t *testing.T) {
	run := func(origin sched.Time) *Collector {
		c := NewCollectorSized(0)
		rs := reg(c, 2)
		rs[0].Damage(0)
		c.OnDamage(1, 1, origin+100)
		c.PollConcluded(1, 2, 7, protocol.OutcomeSuccess, origin+150, origin+400)
		c.Rebase(origin)
		c.Finalize(1000)
		return c
	}
	want, got := run(0), run(1_700_000_000_000_000_000)
	if w, g := want.AccessFailureProbability(), got.AccessFailureProbability(); w != g || w == 0 {
		t.Errorf("AFP rebased = %v, from zero = %v", g, w)
	}
	w, _ := want.MeanSuccessInterval()
	if g, ok := got.MeanSuccessInterval(); !ok || g != w {
		t.Errorf("mean success interval rebased = %v, from zero = %v", g, w)
	}
}

// TestMergeMatchesSingleCollector: collectors that each observed a disjoint
// replica set (one per cluster node), merged in registration order, report
// bit for bit what one collector observing every replica does.
func TestMergeMatchesSingleCollector(t *testing.T) {
	// run replays one script of events; colOf picks each peer's collector.
	run := func(colOf func(peer ids.PeerID) *Collector) {
		spec := content.AUSpec{ID: 1, Name: "m", Size: 4096, BlockSize: 1024}
		reps := make(map[ids.PeerID]*content.SimReplica)
		for peer := ids.PeerID(1); peer <= 4; peer++ {
			reps[peer] = content.NewSimReplica(spec, uint64(peer))
			colOf(peer).RegisterReplica(peer, 1, reps[peer])
		}
		for i, peer := range []ids.PeerID{3, 1, 4, 2, 4, 1} {
			now := sched.Time(100 + 137*i)
			reps[peer].Damage(0)
			colOf(peer).OnDamage(peer, 1, now)
			colOf(5-peer).PollConcluded(5-peer, 1, uint64(i), protocol.OutcomeSuccess, 0, now+50)
			colOf(peer).VoteSupplied(peer, 5-peer, 1, uint64(i), now+60)
		}
		colOf(2).Alarm(2, 1, 9, 950)
	}
	one := NewCollectorSized(0)
	run(func(ids.PeerID) *Collector { return one })
	parts := []*Collector{NewCollectorSized(0), NewCollectorSized(0)}
	run(func(peer ids.PeerID) *Collector { return parts[(peer-1)/2] })
	merged := NewCollectorSized(0)
	for _, c := range parts {
		merged.Merge(c)
	}
	one.Finalize(1000)
	merged.Finalize(1000)

	if w, g := one.AccessFailureProbability(), merged.AccessFailureProbability(); w != g || w == 0 {
		t.Errorf("AFP merged = %v, single = %v", g, w)
	}
	w, _ := one.MeanSuccessInterval()
	if g, ok := merged.MeanSuccessInterval(); !ok || g != w {
		t.Errorf("mean success interval merged = %v, single = %v", g, w)
	}
	if merged.DamagedNow() != one.DamagedNow() || merged.SuccessfulPolls() != one.SuccessfulPolls() ||
		merged.Alarms != one.Alarms || merged.VotesSupplied != one.VotesSupplied || merged.DamageEvents != one.DamageEvents {
		t.Errorf("counters differ: merged %+v, single %+v", merged, one)
	}
}
