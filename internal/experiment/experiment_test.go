package experiment

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"lockss/internal/prng"
	"lockss/internal/sched"
	"lockss/internal/sim"
)

func TestCompareRatios(t *testing.T) {
	base := RunStats{MeanSuccessGap: 90, EffortPerPoll: 100, DefenderEffort: 1000}
	attack := RunStats{MeanSuccessGap: 180, EffortPerPoll: 250, DefenderEffort: 2000, AttackerEffort: 3000}
	c := Compare(attack, base)
	if c.DelayRatio != 2.0 {
		t.Errorf("delay ratio %v", c.DelayRatio)
	}
	if c.Friction != 2.5 {
		t.Errorf("friction %v", c.Friction)
	}
	if c.CostRatio != 1.5 {
		t.Errorf("cost ratio %v", c.CostRatio)
	}
}

func TestCompareInfiniteGap(t *testing.T) {
	base := RunStats{MeanSuccessGap: 90, EffortPerPoll: 100}
	attack := RunStats{MeanSuccessGap: math.Inf(1)}
	c := Compare(attack, base)
	if !math.IsInf(c.DelayRatio, 1) {
		t.Errorf("delay ratio should be +Inf, got %v", c.DelayRatio)
	}
}

func TestAverage(t *testing.T) {
	a := RunStats{AccessFailure: 0.1, SuccessfulPolls: 10, DefenderEffort: 100, EffortPerPoll: 10, MeanSuccessGap: 80}
	b := RunStats{AccessFailure: 0.3, SuccessfulPolls: 20, DefenderEffort: 300, EffortPerPoll: 15, MeanSuccessGap: 100}
	avg := average([]RunStats{a, b})
	if math.Abs(avg.AccessFailure-0.2) > 1e-12 || avg.SuccessfulPolls != 15 || avg.MeanSuccessGap != 90 {
		t.Errorf("average wrong: %+v", avg)
	}
}

func TestCombineLayers(t *testing.T) {
	a := RunStats{AccessFailure: 0.2, SuccessfulPolls: 100, DefenderEffort: 1000, MeanSuccessGap: 90}
	b := RunStats{AccessFailure: 0.4, SuccessfulPolls: 300, DefenderEffort: 3000, MeanSuccessGap: 110}
	c := combineLayers([]RunStats{a, b})
	if math.Abs(c.AccessFailure-0.3) > 1e-12 {
		t.Errorf("layer AFP should average: %v", c.AccessFailure)
	}
	if c.SuccessfulPolls != 400 || c.DefenderEffort != 4000 {
		t.Error("layer counts should sum")
	}
	if c.EffortPerPoll != 10 {
		t.Errorf("effort per poll %v", c.EffortPerPoll)
	}
	// Success-weighted gap: (90*100 + 110*300)/400 = 105.
	if math.Abs(c.MeanSuccessGap-105) > 1e-9 {
		t.Errorf("weighted gap %v", c.MeanSuccessGap)
	}
}

func TestBgLoadDeterministicAndSorted(t *testing.T) {
	day := int64(sim.Day)
	bg := &bgLoad{seed: 42, ratePerNs: 1e-12, meanDurNs: 1e10, bucket: day}
	// A second source reads the buckets in another order, negative days
	// included: generation depends on the bucket alone.
	other := &bgLoad{seed: 42, ratePerNs: 1e-12, meanDurNs: 1e10, bucket: day}
	for k := int64(9); k >= -3; k-- {
		other.Bucket(k)
	}
	var total int
	for k := int64(-3); k < 10; k++ {
		a, b := bg.Bucket(k), other.Bucket(k)
		if len(a) != len(b) {
			t.Fatalf("bucket %d: %d tasks vs %d", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("bucket %d differs between sources", k)
			}
			if i > 0 && a[i].Start < a[i-1].Start {
				t.Fatalf("bucket %d unsorted", k)
			}
			if lo := sched.Time(k * day); a[i].Start < lo || a[i].Start >= lo+sched.Time(day) {
				t.Fatalf("bucket %d task starts at %d, outside the bucket", k, a[i].Start)
			}
		}
		if again := bg.Bucket(k); len(again) > 0 && &again[0] != &a[0] {
			t.Fatalf("bucket %d regenerated instead of recalled", k)
		}
		total += len(a)
	}
	if total == 0 {
		t.Fatal("no background tasks in 13 days")
	}
}

func TestBgLoadRate(t *testing.T) {
	// Expect ~rate * horizon tasks.
	rate := 2e-13 // per ns => ~17 per day
	bg := &bgLoad{seed: 7, ratePerNs: rate, meanDurNs: 1e9, bucket: int64(sim.Day)}
	const days = 30
	n := 0
	for k := range int64(days) {
		n += len(bg.Bucket(k))
	}
	want := rate * float64(days*sim.Day)
	if math.Abs(float64(n)-want) > 0.25*want {
		t.Errorf("background task count %d, want ~%.0f", n, want)
	}
}

// TestLayeredScheduleChecksDoNotAllocate: once a peer's background buckets
// are generated, its schedule checks under layered load allocate nothing.
func TestLayeredScheduleChecksDoNotAllocate(t *testing.T) {
	s := sched.New()
	s.Background = &bgLoad{seed: 7, ratePerNs: 2e-13, meanDurNs: 1e9, bucket: int64(sim.Day)}
	now, end := sched.Time(0).Add(3*sim.Day), sched.Time(0).Add(33*sim.Day)
	for i := range 20 {
		s.ReserveSlot(now.Add(sim.Duration(i)*sim.Hour), 20*sim.Minute, end, "vote")
	}
	// AllocsPerRun's warm-up call generates the buckets.
	if n := testing.AllocsPerRun(100, func() { s.FindSlot(now, 2*sim.Hour, end) }); n != 0 {
		t.Errorf("FindSlot: %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.BusyFraction(now.Add(-7*sim.Day), now) }); n != 0 {
		t.Errorf("BusyFraction: %v allocations", n)
	}
}

func TestPoisson(t *testing.T) {
	rnd := prngNew(3)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(poisson(rnd, 3.5))
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.1 {
		t.Errorf("poisson mean %.3f, want 3.5", mean)
	}
	if poisson(rnd, 0) != 0 || poisson(rnd, -1) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:      "Figure X",
		Title:   "Test table",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tab.AddCells(Str("1"), Str("2"))
	tab.AddCells(Str("333333"), Str("4"))
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "Test table", "long-column", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtProb(0) != "0" {
		t.Error("fmtProb(0)")
	}
	if fmtProb(4.8e-4) != "4.80e-04" {
		t.Errorf("fmtProb = %q", fmtProb(4.8e-4))
	}
	if fmtRatio(math.Inf(1)) != "inf" || fmtRatio(0) != "-" || fmtRatio(1.5) != "1.50" {
		t.Error("fmtRatio wrong")
	}
	if fmtSeries(0.4) != "40%" {
		t.Errorf("fmtSeries = %q", fmtSeries(0.4))
	}
}

func TestScaleOptions(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		o := Options{Scale: s}
		cfg := o.BaseWorld()
		if cfg.Peers <= cfg.Protocol.Quorum {
			t.Errorf("%v: population too small", s)
		}
		if o.seeds() < 1 || o.layersFor() < 2 {
			t.Errorf("%v: bad defaults", s)
		}
		if s.String() == "invalid" {
			t.Errorf("scale %d has no name", s)
		}
	}
	if (Options{Seeds: 7}).seeds() != 7 {
		t.Error("seed override ignored")
	}
}

func TestRunLayeredAggregates(t *testing.T) {
	o := Options{Scale: ScaleTiny}
	cfg := o.BaseWorld()
	cfg.Duration = sim.Year / 2
	cfg.DamageDiskYears = 1
	single, err := runOne(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	layered, err := Run(context.Background(), cfg, nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if layered.SuccessfulPolls < single.SuccessfulPolls*15/10 {
		t.Errorf("two layers should roughly double polls: %v vs %v",
			layered.SuccessfulPolls, single.SuccessfulPolls)
	}
	if layered.AccessFailure <= 0 {
		t.Error("layered run lost the damage signal")
	}
}

// prngNew is a local alias used by the poisson test.
func prngNew(seed uint64) *prng.Source { return prng.New(seed) }
