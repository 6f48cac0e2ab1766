package lockss

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestFacadeBaseline exercises the public API end to end.
func TestFacadeBaseline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 20
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = Year / 2
	cfg.DamageDiskYears = 1

	baseline, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.SuccessfulPolls == 0 {
		t.Fatal("no polls succeeded through the facade")
	}

	attack, err := Run(context.Background(), cfg, func() Adversary {
		return NewPipeStoppage(1.0, 60*Day, 30*Day)
	})
	if err != nil {
		t.Fatal(err)
	}
	cmp := Compare(attack, baseline)
	if cmp.DelayRatio <= 1 {
		t.Errorf("stoppage delay ratio %v should exceed 1", cmp.DelayRatio)
	}
}

func TestFacadeSeedsAndLayers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 15
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = Year / 4
	cfg.Protocol.Quorum = 5
	cfg.Protocol.InnerCircle = 10
	cfg.Protocol.MaxDisagree = 1
	cfg.DamageDiskYears = 1

	multi, err := RunSeeds(context.Background(), cfg, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if multi.TotalPolls == 0 {
		t.Error("multi-seed run produced nothing")
	}
	layered, err := RunLayered(context.Background(), cfg, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if layered.TotalPolls < multi.TotalPolls {
		t.Error("layered run should at least match a single run's polls")
	}
}

func TestFacadeAdversaryConstructors(t *testing.T) {
	for _, a := range []Adversary{
		NewPipeStoppage(0.5, Day, Day),
		NewAdmissionFlood(0.5, Day, Day),
		NewBruteForce(DefectIntro),
		NewBruteForce(DefectRemaining),
		NewBruteForce(DefectNone),
	} {
		if a.Name() == "" {
			t.Error("adversary with empty name")
		}
	}
}

func TestFacadeTableGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	spec, ok := LookupScenario("table1")
	if !ok {
		t.Fatal("table1 is not registered")
	}
	tables, err := RunScenarioTables(context.Background(), spec, ExperimentOptions{Scale: ScaleTiny, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	var buf bytes.Buffer
	PrintTable(&buf, tab)
	out := buf.String()
	for _, want := range []string{"Table 1", "INTRO", "REMAINING", "NONE"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in table output", want)
		}
	}
	if len(tab.Rows) != 6 { // 3 strategies x 2 collection sizes
		t.Errorf("Table 1 has %d rows, want 6", len(tab.Rows))
	}
}

// TestFacadeGuards asserts the run helpers reject non-positive seeds and
// layers with descriptive errors.
func TestFacadeGuards(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	if _, err := RunSeeds(ctx, cfg, nil, 0); err == nil || !strings.Contains(err.Error(), "seeds") {
		t.Errorf("RunSeeds(seeds=0): err = %v, want a seeds error", err)
	}
	if _, err := RunLayered(ctx, cfg, nil, -1); err == nil || !strings.Contains(err.Error(), "layers") {
		t.Errorf("RunLayered(layers=-1): err = %v, want a layers error", err)
	}
}

// TestFacadeScenario registers and runs a custom scenario through the
// public API — the README's extensibility walkthrough.
func TestFacadeScenario(t *testing.T) {
	spec := &Scenario{
		Name:        "facade-quorum-sweep",
		Description: "access failure vs quorum under a 60-day pipe stoppage",
		Base: func(o ExperimentOptions) Config {
			cfg := DefaultConfig()
			cfg.Peers = 15
			cfg.AUs = 2
			cfg.AUSize = 16 << 20
			cfg.Duration = Year / 4
			cfg.Protocol.InnerCircle = 10
			cfg.Protocol.MaxDisagree = 1
			cfg.DamageDiskYears = 1
			return cfg
		},
		Axes: []Axis{{
			Name:   "quorum",
			Values: []float64{3, 5},
			Apply:  func(cfg *Config, v float64) { cfg.Protocol.Quorum = int(v) },
		}},
		Attack: func(o ExperimentOptions, cfg Config, pt Point) Adversary {
			return NewPipeStoppage(1.0, 60*Day, 30*Day)
		},
		Seeds:   1,
		Compare: true,
	}
	if err := RegisterScenario(spec); err != nil {
		t.Fatal(err)
	}
	if _, ok := LookupScenario("facade-quorum-sweep"); !ok {
		t.Fatal("registered scenario not found")
	}
	found := false
	for _, s := range Scenarios() {
		if s.Name == "facade-quorum-sweep" {
			found = true
		}
	}
	if !found {
		t.Error("Scenarios() does not list the custom scenario")
	}

	res, err := RunScenario(context.Background(), spec, ExperimentOptions{Scale: ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, pr := range res.Points {
		if pr.Cmp == nil || pr.Stats.TotalPolls == 0 {
			t.Fatalf("point %+v incomplete", pr.Point)
		}
	}

	tables, err := RunScenarioTables(context.Background(), spec, ExperimentOptions{Scale: ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintTable(&buf, tables[0])
	var csvBuf, jsonBuf bytes.Buffer
	if err := tables[0].WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := tables[0].WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{buf.String(), csvBuf.String(), jsonBuf.String()} {
		if !strings.Contains(out, "quorum") {
			t.Errorf("rendered output missing the axis column:\n%s", out)
		}
	}
}
