package admin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/promtext"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/store"
)

// testProtocolConfig compresses the protocol's preservation timescales to
// sub-second units, as every real-node cluster test does.
func testProtocolConfig() protocol.Config {
	cfg, err := protocol.DemoConfig(1500*time.Millisecond, 3, 5, 32<<10)
	if err != nil {
		panic(err)
	}
	return cfg
}

// newTestNode builds and starts a lone node preserving one in-memory AU
// whose reference peers exist only in the address book — good enough for
// every handler that reads state rather than driving the protocol.
func newTestNode(t *testing.T, damage []int) *node.Node {
	t.Helper()
	rep := content.NewRealReplica(testSpec, 1)
	for _, b := range damage {
		if !rep.Damage(b) {
			t.Fatalf("damage injection at block %d failed", b)
		}
	}
	return startTestNode(t, nil, rep, 0)
}

var testSpec = content.AUSpec{ID: 1, Name: "au-admin", Size: 128 << 10, BlockSize: 32 << 10}

// startTestNode starts a node preserving rep, on the durable store st when
// it is non-nil, scrubbing at scrubPace (0 = the default).
func startTestNode(t *testing.T, st *store.Store, rep content.Replica, scrubPace time.Duration) *node.Node {
	t.Helper()
	book := map[ids.PeerID]string{
		2: "127.0.0.1:1", 3: "127.0.0.1:1", 4: "127.0.0.1:1",
		5: "127.0.0.1:1", 6: "127.0.0.1:1",
	}
	n, err := node.New(node.Config{
		ID:          1,
		Listen:      "127.0.0.1:0",
		AddressBook: book,
		Protocol:    testProtocolConfig(),
		Costs:       effort.DemoCostModel(),
		MBF:         effort.DemoMBFParams(),
		EffortUnit:  effort.DemoEffortUnit,
		Seed:        42,
		Store:       st,
		ScrubPace:   scrubPace,
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := []ids.PeerID{2, 3, 4, 5, 6}
	if err := n.AddAU(rep, refs); err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		n.Peer().SeedGrade(testSpec.ID, r, reputation.Even)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec, string(body)
}

// TestMetricsTextParses is the metrics-format lint: the exposition output
// must pass the strict promtext parser (well-formed HELP/TYPE declarations,
// parseable labeled samples, cumulative histogram buckets with a +Inf bucket
// equal to _count) and the counters a fleet scraper depends on must be
// present with sane values.
func TestMetricsTextParses(t *testing.T) {
	n := newTestNode(t, nil)
	s := New(n, Options{Version: "test-1.0"})
	// Warm the admin-latency histogram so at least one histogram family is
	// non-empty when linted.
	get(t, s.Handler(), "/healthz")
	rec, body := get(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	fams, err := promtext.Lint(body)
	if err != nil {
		t.Fatalf("metrics exposition failed lint: %v\n%s", err, body)
	}
	vals := make(map[string]float64)
	for name, f := range fams {
		if v, ok := f.Value(); ok {
			vals[name] = v
		}
	}
	for _, want := range []string{
		"lockss_up", "lockss_actor_responsive",
		"lockss_transport_sent_total", "lockss_transport_drops_total",
		"lockss_transport_inbound_accepted_total",
		"lockss_polls_started_total", "lockss_polls_concluded_total",
		"lockss_alarms_total", "lockss_aus", "lockss_active_polls",
	} {
		if _, ok := vals[want]; !ok {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
	if vals["lockss_up"] != 1 || vals["lockss_actor_responsive"] != 1 {
		t.Errorf("up=%v responsive=%v, want 1/1", vals["lockss_up"], vals["lockss_actor_responsive"])
	}
	if vals["lockss_aus"] != 1 {
		t.Errorf("lockss_aus = %v, want 1", vals["lockss_aus"])
	}
	if vals["lockss_polls_started_total"] < 1 {
		t.Errorf("lockss_polls_started_total = %v, want >= 1 (poll starts at boot)", vals["lockss_polls_started_total"])
	}
	if _, ok := vals["lockss_store_blocks_scanned_total"]; ok {
		t.Error("store metrics exported for a node with no store")
	}

	// Build info: one gauge sample carrying version and goversion labels.
	bi, ok := fams["lockss_build_info"]
	if !ok || len(bi.Samples) != 1 {
		t.Fatalf("lockss_build_info missing or malformed: %+v", bi)
	}
	if got := bi.Samples[0].Labels["version"]; got != "test-1.0" {
		t.Errorf("build_info version = %q, want test-1.0", got)
	}
	if got := bi.Samples[0].Labels["goversion"]; got != runtime.Version() {
		t.Errorf("build_info goversion = %q, want %q", got, runtime.Version())
	}

	// Every telemetry histogram family expositions, and the admin-latency
	// one has recorded the /healthz round trip above.
	for _, fam := range []string{
		"lockss_poll_duration_seconds", "lockss_solicit_vote_seconds",
		"lockss_tally_seconds", "lockss_repair_seconds",
		"lockss_transport_queue_wait_seconds", "lockss_scrub_pass_seconds",
		"lockss_admin_latency_seconds",
	} {
		f, ok := fams[fam]
		if !ok {
			t.Errorf("histogram family %s missing", fam)
			continue
		}
		if f.Type != "histogram" {
			t.Errorf("%s type = %s, want histogram", fam, f.Type)
		}
	}
	if _, _, count, err := fams["lockss_admin_latency_seconds"].Histogram(); err != nil || count < 1 {
		t.Errorf("admin latency histogram count = %d (%v), want >= 1", count, err)
	}
}

// TestHealthzFlipsWhenActorWedged wedges the actor loop with a blocking
// Inspect and watches /healthz flip to 503 (actor=false), then recover.
func TestHealthzFlipsWhenActorWedged(t *testing.T) {
	n := newTestNode(t, nil)
	s := New(n, Options{inspectTimeout: 150 * time.Millisecond})

	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d (%s), want 200 on a healthy node", rec.Code, body)
	}

	// Wedge: a closure that blocks the actor loop until released.
	started := make(chan struct{})
	release := make(chan struct{})
	go n.Inspect(func(p *protocol.Peer) {
		close(started)
		<-release
	})
	<-started

	rec, body = get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz = %d while wedged, want 503", rec.Code)
	}
	var h struct {
		Healthy  bool `json:"healthy"`
		Listener bool `json:"listener"`
		Actor    bool `json:"actor"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz body not JSON: %v (%s)", err, body)
	}
	if h.Healthy || h.Actor || !h.Listener {
		t.Errorf("wedged healthz = %+v, want listener-only healthy", h)
	}

	close(release)
	deadline := time.After(5 * time.Second)
	for {
		rec, _ = get(t, s.Handler(), "/healthz")
		if rec.Code == http.StatusOK {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("healthz still %d after unwedging", rec.Code)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestAUsAndPeersEndpoints decodes both inspection endpoints and checks the
// damage marks, reference-list grades and address-book merge.
func TestAUsAndPeersEndpoints(t *testing.T) {
	n := newTestNode(t, []int{2})
	s := New(n, Options{})

	rec, body := get(t, s.Handler(), "/aus")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /aus = %d", rec.Code)
	}
	var aus []struct {
		ID            uint32 `json:"id"`
		Name          string `json:"name"`
		Blocks        int    `json:"blocks"`
		DamagedBlocks []int  `json:"damaged_blocks"`
		PollActive    bool   `json:"poll_active"`
		RefList       []struct {
			Peer  uint32 `json:"peer"`
			Grade string `json:"grade"`
		} `json:"ref_list"`
	}
	if err := json.Unmarshal([]byte(body), &aus); err != nil {
		t.Fatalf("/aus body not JSON: %v (%s)", err, body)
	}
	if len(aus) != 1 || aus[0].ID != 1 || aus[0].Name != "au-admin" || aus[0].Blocks != 4 {
		t.Fatalf("unexpected /aus payload: %+v", aus)
	}
	if len(aus[0].DamagedBlocks) != 1 || aus[0].DamagedBlocks[0] != 2 {
		t.Errorf("damaged_blocks = %v, want [2]", aus[0].DamagedBlocks)
	}
	if len(aus[0].RefList) != 5 {
		t.Errorf("ref_list size = %d, want 5", len(aus[0].RefList))
	}
	for _, e := range aus[0].RefList {
		if e.Grade != "even" {
			t.Errorf("grade of peer %d = %q, want even", e.Peer, e.Grade)
		}
	}

	rec, body = get(t, s.Handler(), "/peers")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /peers = %d", rec.Code)
	}
	var peers []struct {
		Peer   uint32            `json:"peer"`
		Addr   string            `json:"addr"`
		Grades map[string]string `json:"grades"`
	}
	if err := json.Unmarshal([]byte(body), &peers); err != nil {
		t.Fatalf("/peers body not JSON: %v (%s)", err, body)
	}
	if len(peers) != 5 {
		t.Fatalf("/peers returned %d peers, want 5: %+v", len(peers), peers)
	}
	for i, p := range peers {
		if p.Peer != uint32(i+2) {
			t.Errorf("peers not sorted: index %d has peer %d", i, p.Peer)
		}
		if p.Addr == "" {
			t.Errorf("peer %d missing address", p.Peer)
		}
		if p.Grades["1"] != "even" {
			t.Errorf("peer %d grades = %v, want AU 1 even", p.Peer, p.Grades)
		}
	}
}

// TestMethodDiscipline: /drain is POST-only, inspection endpoints GET-only.
func TestMethodDiscipline(t *testing.T) {
	n := newTestNode(t, nil)
	s := New(n, Options{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/drain", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /drain = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

// TestDrainEndpointMidPoll boots a real 6-node cluster, POSTs /drain to one
// node while its first poll is in flight, and requires the drain to finish
// the poll, stop the node and fire OnDrained. Real-time; skipped by -short.
func TestDrainEndpointMidPoll(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const N = 6
	spec := content.AUSpec{ID: 1, Name: "au-drain", Size: 128 << 10, BlockSize: 32 << 10}
	book := make(map[ids.PeerID]string)
	nodes := make([]*node.Node, N)
	for i := 0; i < N; i++ {
		n, err := node.New(node.Config{
			ID:          ids.PeerID(i + 1),
			Listen:      "127.0.0.1:0",
			AddressBook: book,
			Protocol:    testProtocolConfig(),
			Costs:       effort.DemoCostModel(),
			MBF:         effort.DemoMBFParams(),
			EffortUnit:  effort.DemoEffortUnit,
			Seed:        uint64(2000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for i, n := range nodes {
		var refs []ids.PeerID
		for j := 0; j < N; j++ {
			if j != i {
				refs = append(refs, ids.PeerID(j+1))
			}
		}
		if err := n.AddAU(content.NewRealReplica(spec, uint64(i+1)), refs); err != nil {
			t.Fatal(err)
		}
		n.SetFriends(refs)
		for _, r := range refs {
			n.Peer().SeedGrade(spec.ID, r, reputation.Even)
		}
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		addr := n.Addr().String()
		for _, m := range nodes {
			m.SetAddress(ids.PeerID(i+1), addr)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	drained := make(chan struct{})
	s := New(nodes[0], Options{
		Logf:      t.Logf,
		OnDrained: func() { close(drained) },
	})

	// The first poll starts at boot; confirm it is in flight, then drain.
	var active int
	nodes[0].Inspect(func(p *protocol.Peer) { active = p.ActivePolls() })
	if active != 1 {
		t.Fatalf("ActivePolls = %d before drain, want 1", active)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/drain", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /drain = %d, want 202", rec.Code)
	}
	// A second POST must be a no-op (still accepted, drain not restarted).
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/drain", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("second POST /drain = %d, want 202", rec.Code)
	}

	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}
	// The node is stopped: Inspect must refuse, and the in-flight poll must
	// have concluded rather than been abandoned.
	if nodes[0].Inspect(func(p *protocol.Peer) {}) {
		t.Error("Inspect succeeded on a drained node; want stopped")
	}
	st := nodes[0].Stats()
	if st.Peer.PollsStarted == 0 || st.Peer.PollsStarted != st.Peer.PollsConcluded() {
		t.Errorf("drained node stats: started=%d concluded=%d, want equal and nonzero",
			st.Peer.PollsStarted, st.Peer.PollsConcluded())
	}
}

// TestReadMatchesMetrics: Read is the in-process twin of /metrics, so on one
// live node its key set must be exactly the flat map of unlabeled scalar
// samples that parsing the exposition yields.
func TestReadMatchesMetrics(t *testing.T) {
	for name, n := range map[string]*node.Node{"memory": newTestNode(t, nil), "store": newStoreNode(t)} {
		_, body := get(t, New(n, Options{}).Handler(), "/metrics")
		fams, err := promtext.Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		for fname, f := range fams {
			if _, ok := f.Value(); ok {
				want[fname] = true
			}
		}
		got, healthy := Read(n, time.Second)
		if !healthy {
			t.Errorf("%s: Read reports a live node unhealthy", name)
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%s: Read has %s, /metrics does not", name, k)
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: /metrics has %s, Read does not", name, k)
			}
		}
		if len(got) != len(want) || got["lockss_actor_responsive"] != 1 || got["lockss_aus"] != 1 {
			t.Errorf("%s: Read = %v", name, got)
		}
	}
}

// TestHealthzScrubFollowsReload: a scrubber slowed by POST /reload is still
// healthy while it runs at its new pace. The node starts on a one-block store
// at a 10ms pace.
func TestHealthzScrubFollowsReload(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := content.AUSpec{ID: testSpec.ID, Name: "au-one-block", Size: 32 << 10, BlockSize: 32 << 10}
	rep, err := st.CreateFrom(spec, 1, content.PublisherReader(spec))
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	const pace = 10 * time.Millisecond
	n := startTestNode(t, st, rep, pace)
	s := New(n, Options{})
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().ScrubPasses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scrubber made no pass")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec, body := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d (%s) before the reload", rec.Code, body)
	}
	if rec, body := post(t, s.Handler(), "/reload", `{"scrub_pace":"1s"}`); rec.Code != http.StatusOK {
		t.Fatalf("POST /reload = %d (%s)", rec.Code, body)
	}
	bad := 0
	for i := 0; i < 40; i++ {
		time.Sleep(50 * time.Millisecond)
		rec, _ := get(t, s.Handler(), "/healthz")
		if _, healthy := Read(n, time.Second); rec.Code != http.StatusOK || !healthy {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of 40 probes over 2s read unhealthy while the scrubber ran at its reloaded pace", bad)
	}
}
