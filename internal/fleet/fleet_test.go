package fleet

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lockss/internal/telemetry"
)

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"1.5s"`)); err != nil || time.Duration(d) != 1500*time.Millisecond {
		t.Fatalf("UnmarshalJSON(\"1.5s\") = %v, %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`2000000000`)); err != nil || time.Duration(d) != 2*time.Second {
		t.Fatalf("UnmarshalJSON(ns) = %v, %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`true`)); err == nil {
		t.Fatal("UnmarshalJSON(true) accepted")
	}
	b, err := Duration(time.Second).MarshalJSON()
	if err != nil || string(b) != `"1s"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}

func TestLoadConfigStripsComments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	cfg := `// a commented fleet config
{
  // population
  "nodes": 8,
  "aus": 1,
  "duration": "3s",
  "faults": [
    // one damage event
    {"at": "1s", "kind": "damage", "node": 2, "au": 1, "block": 0}
  ]
}
`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes != 8 || time.Duration(c.Duration) != 3*time.Second || len(c.Faults) != 1 {
		t.Fatalf("loaded config %+v", c)
	}
	if c.Quorum != 3 || c.PollInterval == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestConfigValidate(t *testing.T) {
	base := Config{}.withDefaults()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := base
	bad.Nodes = 2
	if err := bad.Validate(); err == nil {
		t.Error("accepted 2-node fleet")
	}
	bad = base
	bad.Faults = []Fault{{Kind: "explode"}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted unknown fault kind")
	}
	bad = base
	bad.Faults = []Fault{{Kind: "damage", AU: 99}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted damage to out-of-range AU")
	}
	bad = base
	bad.Faults = []Fault{{Kind: "partition"}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted partition without a subnet")
	}
}

// TestParseConfigRejectsWhatFailsLater: none of these configs can run, so
// each must be refused at load rather than panic in Run, fail at node boot or
// expand into an unbounded fault plan.
func TestParseConfigRejectsWhatFailsLater(t *testing.T) {
	for _, field := range []string{
		`"scrape_interval": "-1s"`,
		`"duration": "-1s"`,
		`"poll_interval": "-1s"`,
		`"poll_interval": "100ms"`, // too short for the protocol's waits
		`"quorum": 6`,              // above the default inner circle of 5
		`"churn": {"interval": "1ns", "down": "1s"}`,
	} {
		if _, err := parseConfig([]byte(`{"nodes": 8, ` + field + `}`)); err == nil {
			t.Errorf("accepted {%s}", field)
		}
	}
	c, err := parseConfig([]byte(`{"nodes": 8, "quorum": 1}`))
	if err != nil {
		t.Fatalf("quorum 1: %v", err)
	}
	if p, err := c.protocolConfig(); err != nil || p.MaxDisagree != 0 {
		t.Errorf("quorum 1 runs margin %d, %v", p.MaxDisagree, err)
	}
}

// FuzzParseConfig: a config parseConfig accepts gives every node a valid
// protocol configuration, and its fault plan resolves without panicking
// into time order.
func FuzzParseConfig(f *testing.F) {
	examples, _ := filepath.Glob("../../examples/fleet/*.json")
	for _, path := range examples {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"nodes": 3, "quorum": 1, "inner_circle": 2, "poll_interval": "1.2s"}`))
	f.Add([]byte(`{"faults": [{"at": "1s", "kind": "damage", "au": 1, "block": -1}, {"kind": "kill", "for": "1s"}], "churn": {"interval": "2s", "down": "1s"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseConfig(data)
		if err != nil {
			return
		}
		if p, err := c.protocolConfig(); err != nil {
			t.Fatalf("accepted config has no protocol config: %v", err)
		} else if err := p.Validate(); err != nil {
			t.Fatalf("accepted config runs an invalid protocol config: %v", err)
		}
		plan := c.schedule(rand.New(rand.NewSource(int64(c.Seed))))
		for i := 1; i < len(plan); i++ {
			if plan[i-1].At > plan[i].At {
				t.Fatalf("plan out of time order at %d: %v", i, plan)
			}
		}
	})
}

// TestScheduleDeterministicAndPinned: same seed, same schedule; randoms
// pinned; "for" sugar and churn expanded into inverse pairs in time order.
func TestScheduleDeterministic(t *testing.T) {
	c := Config{
		Nodes: 10, AUs: 1, AUSize: 128 << 10, BlockSize: 32 << 10,
		Duration: Duration(10 * time.Second),
		Faults: []Fault{
			{At: Duration(time.Second), Kind: "damage", Node: 0, AU: 1, Block: -1},
			{At: Duration(2 * time.Second), Kind: "kill", Node: 0, For: Duration(time.Second)},
		},
		Churn: &Churn{Interval: Duration(3 * time.Second), Down: Duration(time.Second)},
	}.withDefaults()
	a := c.schedule(rand.New(rand.NewSource(42)))
	b := c.schedule(rand.New(rand.NewSource(42)))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("schedule not deterministic:\n%v\n%v", a, b)
	}
	for _, f := range a {
		if f.Node == 0 && f.Kind != "partition" && f.Kind != "heal" {
			t.Errorf("random node not pinned: %+v", f)
		}
		if f.Kind == "damage" && f.Block < 0 {
			t.Errorf("random block not pinned: %+v", f)
		}
	}
	// The kill at 2s must have a matching restart at 3s; churn adds more
	// kill/restart pairs.
	kills, restarts := 0, 0
	for _, f := range a {
		switch f.Kind {
		case "kill":
			kills++
		case "restart":
			restarts++
		}
	}
	if kills < 2 || kills != restarts {
		t.Errorf("kills=%d restarts=%d, want matched pairs incl. churn", kills, restarts)
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].At > a[i].At {
			t.Fatalf("schedule not time-ordered: %v", a)
		}
	}
}

// TestFleetRepairsInjectedDamage runs a real seeded 10-node durable fleet:
// silent rot on one node, and silent rot on a second node that is killed
// before any poll can heal it and restarted two seconds later. The report
// must show all damage repaired and all nodes back up and healthy — and the
// restarted node, rebuilt by the shared cluster builder from its surviving
// store directory, must have inherited its rot and had it repaired.
// Real-time; skipped by -short (CI runs it as a named step).
func TestFleetRepairsInjectedDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fleet test")
	}
	cfg := Config{
		Nodes:          10,
		AUs:            1,
		AUSize:         128 << 10,
		BlockSize:      32 << 10,
		Seed:           7,
		Duration:       Duration(9 * time.Second),
		ScrapeInterval: Duration(1 * time.Second),
		PollInterval:   Duration(1500 * time.Millisecond),
		DataDir:        t.TempDir(),
		Faults: []Fault{
			{At: Duration(300 * time.Millisecond), Kind: "damage", Node: 3, AU: 1, Block: 2},
			{At: Duration(400 * time.Millisecond), Kind: "damage", Node: 7, AU: 1, Block: 1},
			{At: Duration(500 * time.Millisecond), Kind: "kill", Node: 7, For: Duration(2 * time.Second)},
		},
	}.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f := New(cfg, t.Logf)
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.Summary())

	for _, ev := range rep.FaultLog {
		if ev.Error != "" {
			t.Errorf("fault %s at %v failed: %s", ev.Fault.Kind, ev.At, ev.Error)
		}
	}
	if len(rep.FaultLog) != 4 { // damage, damage, kill, restart
		t.Errorf("fault log has %d events, want 4: %+v", len(rep.FaultLog), rep.FaultLog)
	}
	if !rep.Final.Converged || rep.Final.UnrepairedDamage != 0 {
		t.Errorf("fleet did not converge: %d unrepaired damaged blocks", rep.Final.UnrepairedDamage)
	}
	if rep.Final.NodesUp != cfg.Nodes {
		t.Errorf("NodesUp = %d, want %d (kill was scheduled to restart)", rep.Final.NodesUp, cfg.Nodes)
	}
	if !rep.Final.AllHealthy {
		t.Errorf("not all nodes healthy at end: %d/%d", rep.Final.NodesHealthy, cfg.Nodes)
	}
	// The injected damage must have been visible and then repaired: the
	// damaged node received at least one protocol repair.
	last := rep.Samples[len(rep.Samples)-1]
	if last.Aggregate["repairs_received"] < 1 {
		t.Errorf("no repairs received across the fleet; damage was never healed by the protocol")
	}
	// Node 7's counters restarted from zero with it, so a repair it received
	// is one its rebuilt node needed: the rot survived the kill on disk, and
	// the verified-clean stores above say it is gone now.
	if got := last.PerNode[6].Metrics["lockss_repairs_received_total"]; got < 1 {
		t.Errorf("restarted node 7 received %v repairs; its store's damage state did not survive the rebuild", got)
	}
	if last.Aggregate["polls_concluded"] < float64(cfg.Nodes) {
		t.Errorf("polls_concluded = %v, want >= %d", last.Aggregate["polls_concluded"], cfg.Nodes)
	}

	// The same run's report must carry the fleet-wide flight-recorder sweep:
	// merged latency quantiles and a cross-node poll timeline where initiator
	// spans are joined with voter-side records by poll ID.
	t.Run("telemetry", func(t *testing.T) {
		tel := rep.Telemetry
		if len(tel.Quantiles) != len(telemetry.HistogramFamilies()) {
			t.Errorf("report has %d quantile rows, want one per histogram family (%d)", len(tel.Quantiles), len(telemetry.HistogramFamilies()))
		}
		var pd *QuantileRow
		for i := range tel.Quantiles {
			if tel.Quantiles[i].Metric == "poll_duration" {
				pd = &tel.Quantiles[i]
			}
		}
		if pd == nil {
			t.Fatalf("no merged poll_duration quantiles in report: %+v", tel.Quantiles)
		}
		if pd.Count < uint64(cfg.Nodes) {
			t.Errorf("poll_duration count = %d, want >= %d (every node polls)", pd.Count, cfg.Nodes)
		}
		if pd.P50 <= 0 || pd.P95 < pd.P50 || pd.P99 < pd.P95 {
			t.Errorf("poll_duration quantiles not ordered/positive: p50=%g p95=%g p99=%g", pd.P50, pd.P95, pd.P99)
		}
		if len(tel.Timeline) == 0 {
			t.Fatal("poll timeline empty")
		}
		joined := 0
		for _, tp := range tel.Timeline {
			for _, v := range tp.VoterSpans {
				if v.PollID != tp.PollID {
					t.Errorf("voter span poll ID %d attached to poll %d", v.PollID, tp.PollID)
				}
				if v.Voter == tp.Poller {
					t.Errorf("poll %d: initiator %d listed as its own voter", tp.PollID, tp.Poller)
				}
			}
			if len(tp.VoterSpans) > 0 {
				joined++
			}
		}
		if joined == 0 {
			t.Error("no timeline poll has voter spans joined from other nodes")
		}
	})
}

// TestScrapeSurvivesSpacesInLabelValues feeds the sweep an exposition whose
// build-info labels contain spaces — what runtime.Version() returns under any
// GOEXPERIMENT or a devel toolchain, and what -ldflags "-X main.version=v1
// rc1" produces. The scrape must read every scalar and keep the labeled
// series out of the flat map rather than fail on the line.
func TestScrapeSurvivesSpacesInLabelValues(t *testing.T) {
	const exposition = `# HELP lockss_au_damaged_blocks Blocks currently marked damaged across all AUs.
# TYPE lockss_au_damaged_blocks gauge
lockss_au_damaged_blocks 3
# HELP lockss_active_polls AUs with a poll in flight.
# TYPE lockss_active_polls gauge
lockss_active_polls 1
# HELP lockss_alarms_total Inconclusive-poll alarms raised.
# TYPE lockss_alarms_total counter
lockss_alarms_total 2
# HELP lockss_build_info Build metadata; value is always 1.
# TYPE lockss_build_info gauge
lockss_build_info{version="v1 rc1",goversion="go1.24.0 X:synctest"} 1
# HELP lockss_tally_seconds Tally latency.
# TYPE lockss_tally_seconds histogram
lockss_tally_seconds_bucket{le="+Inf"} 0
lockss_tally_seconds_sum 0
lockss_tally_seconds_count 0
`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			io.WriteString(w, exposition)
		}
	}))
	defer srv.Close()

	addr := srv.Listener.Addr().String()
	smp := sampleTargets(0, []scrapeTarget{{id: 1, adminAddr: addr}})
	ns := smp.PerNode[0]
	if ns.MetricsErr != "" {
		t.Fatalf("scrape failed: %s", ns.MetricsErr)
	}
	if ns.Damage != 3 || ns.ActivePolls != 1 || smp.Aggregate["alarms"] != 2 {
		t.Errorf("damage=%d polls=%d alarms=%v, want 3/1/2", ns.Damage, ns.ActivePolls, smp.Aggregate["alarms"])
	}
	if len(ns.Metrics) != 3 {
		t.Errorf("flat metrics = %v, want exactly the three unlabeled scalars", ns.Metrics)
	}
	fams, err := scrapeMetrics(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := fams["lockss_build_info"].Samples[0].Labels["goversion"]; got != "go1.24.0 X:synctest" {
		t.Errorf("goversion label = %q", got)
	}
}

// TestNodeExportsEveryMetricTheFleetReads boots a small durable fleet and
// sweeps it once: every name the fleet looks up in a scrape — the aggregate
// counters and the damage gauges — must be in a live node's exposition, or
// the report would silently read zeros.
func TestNodeExportsEveryMetricTheFleetReads(t *testing.T) {
	cfg := Config{Nodes: 3, AUs: 1, AUSize: 64 << 10, BlockSize: 32 << 10, Quorum: 2, InnerCircle: 2, Seed: 1, DataDir: t.TempDir()}.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f := New(cfg, t.Logf)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.stopAll()

	smp := sampleTargets(0, f.scrapeTargets())
	for _, ns := range smp.PerNode {
		if ns.MetricsErr != "" {
			t.Fatalf("node %d scrape: %s", ns.Node, ns.MetricsErr)
		}
		want := []string{"lockss_au_damaged_blocks", "lockss_active_polls"}
		for _, k := range aggregateKeys {
			want = append(want, k.metric)
		}
		for _, name := range want {
			if _, ok := ns.Metrics[name]; !ok {
				t.Errorf("node %d: %s is read by the fleet but not exported", ns.Node, name)
			}
		}
	}
}
