package fleet

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lockss/internal/node"
	"lockss/internal/protocol"
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
		`"faults": [{"kind": "restart"}]`, // no node: would index members[-1]
		`"faults": [{"kind": "unstall"}]`,
		`"faults": [{"kind": "damage", "au": 1, "block": 99}]`, // past a 4-block AU
		`"faults": [{"kind": "damage", "au": 1, "block": 4}]`,
		`"faults": [{"kind": "damage", "au": 1, "block": -2}]`, // only -1 means random
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
	// Plans that must be refused at load: they would index no member, or a
	// block past the AU's end, only when they fire.
	f.Add([]byte(`{"faults": [{"kind": "restart"}, {"kind": "damage", "au": 1, "block": 9}]}`))
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
		// What apply indexes and injects must exist: every fault aimed at
		// a node names one in range, and every damaged block is in its AU.
		for _, fl := range plan {
			if fl.Kind != "partition" && fl.Kind != "heal" && (fl.Node < 1 || fl.Node > c.Nodes) {
				t.Fatalf("planned %s on node %d of %d", fl.Kind, fl.Node, c.Nodes)
			}
			if fl.Kind == "damage" && (fl.Block < 0 || fl.Block >= c.blocks()) {
				t.Fatalf("planned damage to block %d of %d", fl.Block, c.blocks())
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

// TestStalledMemberSamplesUnhealthy wedges one member's actor loop through
// the stall fault and sweeps the fleet: the stalled member must read
// unhealthy and unresponsive, with its transport counters but none of the
// protocol counters its loop would have had to answer, and the sweep must
// cost one bounded read rather than wait on the wedged loop. The live
// members' readings must still carry their damage and counters into the
// sweep's totals.
func TestStalledMemberSamplesUnhealthy(t *testing.T) {
	cfg := Config{Nodes: 3, AUs: 1, AUSize: 64 << 10, BlockSize: 32 << 10, Quorum: 2, InnerCircle: 2, Seed: 1}.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f := New(cfg, t.Logf)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.stopAll()
	// Marked damage on a live member must reach its sample and the sweep's
	// total; the boot poll cannot conclude in the moment before the read.
	if _, err := f.apply(Fault{Kind: "damage", Node: 3, AU: 1, Block: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.apply(Fault{Kind: "stall", Node: 2}); err != nil {
		t.Fatal(err)
	}
	// The stall closure is posted asynchronously; wait until it holds the
	// loop, which is when a round trip stops being answered.
	for {
		if _, ok := node.Within(f.members[1].n, 20*time.Millisecond, func(*protocol.Peer) bool { return true }); !ok {
			break
		}
	}

	start := time.Now()
	smp := sampleTargets(0, f.scrapeTargets())
	if took := time.Since(start); took > sampleTimeout+time.Second {
		t.Errorf("sweep took %v, want one bounded read (%v plus slack)", took, sampleTimeout)
	}
	if smp.NodesHealthy != 2 {
		t.Errorf("NodesHealthy = %d, want 2 of 3", smp.NodesHealthy)
	}
	ns := smp.PerNode[1]
	if ns.Healthy {
		t.Error("stalled node 2 reads healthy")
	}
	if v, ok := ns.Metrics["lockss_actor_responsive"]; !ok || v != 0 {
		t.Errorf("stalled node 2 lockss_actor_responsive = %v (present %v), want 0", v, ok)
	}
	for _, name := range []string{"lockss_up", "lockss_transport_sent_total", "lockss_transport_dials_total"} {
		if _, ok := ns.Metrics[name]; !ok {
			t.Errorf("stalled node 2 lacks %s; transport counters need no actor loop", name)
		}
	}
	for name := range ns.Metrics {
		if strings.HasPrefix(name, "lockss_polls_") || name == "lockss_au_damaged_blocks" {
			t.Errorf("stalled node 2 exports %s, which only its wedged loop can answer", name)
		}
	}
	sent := 0.0
	for i, ns := range smp.PerNode {
		sent += ns.Metrics["lockss_transport_sent_total"]
		if i != 1 && (!ns.Healthy || ns.Metrics["lockss_actor_responsive"] != 1) {
			t.Errorf("node %d: healthy=%v responsive=%v, want a healthy live member", i+1,
				ns.Healthy, ns.Metrics["lockss_actor_responsive"])
		}
	}
	if smp.Aggregate["transport_sent"] != sent {
		t.Errorf("aggregate transport_sent = %v, want the per-node sum %v", smp.Aggregate["transport_sent"], sent)
	}
	if smp.PerNode[2].Damage != 1 || smp.DamagedBlocks != 1 {
		t.Errorf("node 3 damage = %d, sweep damaged blocks = %v; want the one injected block",
			smp.PerNode[2].Damage, smp.DamagedBlocks)
	}
}

// TestDamageOnStalledMemberDoesNotHang: injecting in-memory damage runs on
// the member's actor loop, and a stalled loop only resumes when the fault
// schedule releases it. The fault must be refused, as damage on a down node
// is, and the run must reach its end.
func TestDamageOnStalledMemberDoesNotHang(t *testing.T) {
	cfg := Config{
		Nodes: 4, AUs: 1, AUSize: 64 << 10, BlockSize: 32 << 10, Quorum: 2, InnerCircle: 2, Seed: 1,
		Duration: Duration(1500 * time.Millisecond),
		Faults: []Fault{
			{At: Duration(100 * time.Millisecond), Kind: "stall", Node: 2, For: Duration(500 * time.Millisecond)},
			{At: Duration(200 * time.Millisecond), Kind: "damage", Node: 2, AU: 1, Block: 1},
		},
	}.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	done := make(chan *Report, 1)
	go func() {
		rep, err := New(cfg, t.Logf).Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	var rep *Report
	select {
	case rep = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("fleet run still going 15s into a 1.5s run: damage on a stalled node hung the fault schedule")
	}
	if rep == nil {
		return
	}
	var kinds []string
	for _, ev := range rep.FaultLog {
		kinds = append(kinds, ev.Fault.Kind)
		if ev.Fault.Kind == "damage" && !strings.Contains(ev.Error, "stalled") {
			t.Errorf("damage on stalled node: error %q, want it refused as stalled", ev.Error)
		}
		if ev.Fault.Kind != "damage" && ev.Error != "" {
			t.Errorf("fault %s failed: %s", ev.Fault.Kind, ev.Error)
		}
	}
	if strings.Join(kinds, ",") != "stall,damage,unstall" {
		t.Errorf("fault log %v, want stall,damage,unstall", kinds)
	}
}
