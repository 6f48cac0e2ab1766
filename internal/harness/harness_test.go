package harness

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"lockss/internal/effort"
	"lockss/internal/experiment"
	"lockss/internal/protocol"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// demoProtocolConfig compresses the protocol's preservation timescales to
// sub-second units so an audit-and-repair round completes inside a test.
func demoProtocolConfig() protocol.Config {
	cfg, err := protocol.DemoConfig(1500*time.Millisecond, 3, 5, 32<<10)
	if err != nil {
		panic(err)
	}
	return cfg
}

// pollCounts sums the cluster's poll and repair counters for a failure
// message.
func pollCounts(c *Cluster) (ok, other, repairs uint64) {
	for _, m := range c.Members {
		s := m.Node.Stats().Peer
		ok += s.PollsSucceeded
		other += s.PollsInquorate + s.PollsInconclusive + s.PollsRepairFailed
		repairs += s.RepairsReceived
	}
	return ok, other, repairs
}

// demoOverride shrinks a scenario's paper-scale configuration to cluster
// scale: six nodes, one small AU, demo-compressed protocol timescales, and a
// damage process fast enough to exercise repair inside the horizon. The
// sweep axis has already applied to cfg.Protocol, so the toggles the axes
// touch are preserved across the wholesale protocol replacement.
func demoOverride(horizon time.Duration) func(*world.Config) {
	return func(cfg *world.Config) {
		p := demoProtocolConfig()
		p.Introductions = cfg.Protocol.Introductions
		p.Desynchronize = cfg.Protocol.Desynchronize
		cfg.Protocol = p
		cfg.Costs = effort.DemoCostModel()
		cfg.Seed = 12345
		cfg.Peers = 6
		cfg.AUs = 1
		cfg.AUSize = 128 << 10
		cfg.Friends = 3
		cfg.AUsPerDisk = 1
		// Mean silent-damage gap per node ≈ 6 wall seconds.
		cfg.DamageDiskYears = 6 * float64(time.Second) / float64(sim.Year)
		cfg.SeedAllEven = true
		cfg.Duration = sim.Duration(horizon)
	}
}

// TestCrossValidationIntroductions is the sim/real convergence test: the
// registered ablation-introductions scenario runs on both stacks with the
// identical cluster-scale configuration, and the resulting health metrics
// must agree within loose tolerances. The simulator models an idealized
// network; the cluster runs real TCP, real stores and real MBF proofs — so
// the comparison checks orders of magnitude and signs, not decimals.
func TestCrossValidationIntroductions(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	s, ok := experiment.Lookup("ablation-introductions")
	if !ok {
		t.Fatal("scenario ablation-introductions not registered")
	}
	o := experiment.Options{Scale: experiment.ScaleTiny, Seeds: 1}
	override := demoOverride(12 * time.Second)
	ctx := context.Background()

	simRes, err := RunScenario(ctx, s, o, RunSim, override)
	if err != nil {
		t.Fatalf("sim backend: %v", err)
	}
	cluRes, err := RunScenario(ctx, s, o, RunCluster, override)
	if err != nil {
		t.Fatalf("cluster backend: %v", err)
	}

	if len(simRes.Points) != len(cluRes.Points) || len(simRes.Points) == 0 {
		t.Fatalf("point counts differ: sim %d, cluster %d", len(simRes.Points), len(cluRes.Points))
	}
	for i := range simRes.Points {
		ss := simRes.Points[i].Stats
		cs := cluRes.Points[i].Stats
		label := s.Axes[0].Format(simRes.Points[i].Point.At(0))
		t.Logf("introductions=%s sim:  polls-ok=%.0f/%.0f afp=%.3f repairs=%.0f",
			label, ss.SuccessfulPolls, ss.TotalPolls, ss.AccessFailure, ss.RepairsFixed)
		t.Logf("introductions=%s real: polls-ok=%.0f/%.0f afp=%.3f repairs=%.0f",
			label, cs.SuccessfulPolls, cs.TotalPolls, cs.AccessFailure, cs.RepairsFixed)

		if ss.SuccessfulPolls == 0 {
			t.Errorf("point %d: simulator completed no successful polls", i)
		}
		if cs.SuccessfulPolls == 0 {
			t.Errorf("point %d: cluster completed no successful polls", i)
		}
		if ss.SuccessfulPolls > 0 && cs.SuccessfulPolls > 0 {
			ratio := cs.SuccessfulPolls / ss.SuccessfulPolls
			if ratio < 0.2 || ratio > 5 {
				t.Errorf("point %d: poll-rate ratio cluster/sim = %.2f outside [0.2, 5]", i, ratio)
			}
		}
		if d := math.Abs(cs.AccessFailure - ss.AccessFailure); d > 0.25 {
			t.Errorf("point %d: access-failure disagrees by %.3f (sim %.3f, cluster %.3f)",
				i, d, ss.AccessFailure, cs.AccessFailure)
		}
	}

	// Both results render through the same generic table without panicking,
	// comparison columns or not.
	if tab := s.GenericTable(o, simRes); tab == nil || len(tab.Rows) == 0 {
		t.Error("sim result rendered an empty table")
	}
	if tab := s.GenericTable(o, cluRes); tab == nil || len(tab.Rows) == 0 {
		t.Error("cluster result rendered an empty table")
	}
}

// TestClusterBackendRejectsOversizedConfigs pins the guard rails: cluster
// execution refuses paper-scale populations rather than forking a hundred
// OS processes' worth of goroutines.
func TestClusterBackendRejectsOversizedConfigs(t *testing.T) {
	cfg := world.Default() // 100 peers, 50 AUs, 512 MB
	_, err := RunCluster(context.Background(), cfg)
	if err == nil {
		t.Fatal("paper-scale config accepted by the cluster backend")
	}
}

// TestBackendsRefuseChurn: a cluster's members are fixed, so the churn
// scenario errors on the cluster backend, even shrunk to cluster scale,
// instead of running without its newcomers; and RunSim, the cluster's
// simulated twin, refuses it too rather than run newcomers on WAN links
// beside loopback founders.
func TestBackendsRefuseChurn(t *testing.T) {
	s, ok := experiment.Lookup("extension-churn")
	if !ok {
		t.Fatal("scenario extension-churn not registered")
	}
	o := experiment.Options{Scale: experiment.ScaleTiny, Seeds: 1}
	for name, run := range map[string]func(context.Context, world.Config) (experiment.RunStats, error){
		"RunCluster": RunCluster, "RunSim": RunSim,
	} {
		_, err := RunScenario(context.Background(), s, o, run, demoOverride(2*time.Second))
		if !errors.Is(err, errChurn) {
			t.Errorf("extension-churn on %s: err = %v, want a churn refusal", name, err)
		}
	}
}

// TestWaitFor pins the condition-poll helper's contract.
func TestWaitFor(t *testing.T) {
	if !WaitFor(time.Second, time.Millisecond, func() bool { return true }) {
		t.Error("immediately-true condition reported false")
	}
	var n int
	if !WaitFor(time.Second, time.Millisecond, func() bool { n++; return n > 3 }) {
		t.Error("eventually-true condition reported false")
	}
	if WaitFor(10*time.Millisecond, time.Millisecond, func() bool { return false }) {
		t.Error("never-true condition reported true")
	}
}
