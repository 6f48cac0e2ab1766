package admin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/store"
	"lockss/internal/telemetry"
)

// post drives a POST with a JSON body through the handler.
func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

// seedSpans injects a small poll history straight through the telemetry
// recorder's observer interface — the same entry points the protocol uses —
// so the endpoints can be tested without running a cluster.
func seedSpans(tel *telemetry.Telemetry) {
	base := sched.Time(1_000_000_000)
	// Poll 1 on AU 1: solicited, voted, concluded successfully.
	tel.PollStarted(1, 1, 101, base)
	tel.VoteSolicited(1, 2, 1, 101, base+10)
	tel.VoteReceived(1, 2, 1, 101, base+10, base+50)
	tel.PollConcluded(1, 1, 101, protocol.OutcomeSuccess, base, base+100)
	// Poll 2 on AU 2: concluded inquorate.
	tel.PollStarted(1, 2, 102, base+200)
	tel.PollConcluded(1, 2, 102, protocol.OutcomeInquorate, base+200, base+300)
	// Poll 3 on AU 1: still in flight.
	tel.PollStarted(1, 1, 103, base+400)
	// One voter-side vote into someone else's poll.
	tel.VoteSupplied(1, 9, 1, 901, base+500)
}

func TestPollsEndpointFilters(t *testing.T) {
	n := newTestNode(t, nil)
	s := New(n, Options{})
	seedSpans(n.Telemetry())

	type pollsBody struct {
		Peer  uint32                 `json:"peer"`
		Polls []telemetry.PollSpan   `json:"polls"`
		Votes []telemetry.VoteRecord `json:"votes"`
	}
	decode := func(path string) pollsBody {
		t.Helper()
		rec, body := get(t, s.Handler(), path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d (%s)", path, rec.Code, body)
		}
		var pb pollsBody
		if err := json.Unmarshal([]byte(body), &pb); err != nil {
			t.Fatalf("GET %s body not JSON: %v (%s)", path, err, body)
		}
		return pb
	}

	all := decode("/polls")
	if all.Peer != 1 {
		t.Errorf("peer = %d, want 1", all.Peer)
	}
	// The node's own boot poll may add spans beyond the seeded three; the
	// seeded poll IDs must all be present with the right shape.
	byID := make(map[uint64]telemetry.PollSpan)
	for _, p := range all.Polls {
		byID[p.PollID] = p
	}
	p1, ok := byID[101]
	if !ok || p1.Outcome != "success" || p1.Votes != 1 || p1.Solicits != 1 || p1.DurationNs != 100 {
		t.Errorf("poll 101 = %+v (present %v), want success/1 vote/1 solicit/100ns", p1, ok)
	}
	if p2 := byID[102]; p2.Outcome != "inquorate" {
		t.Errorf("poll 102 outcome = %q, want inquorate", p2.Outcome)
	}
	if p3 := byID[103]; p3.Outcome != "" || p3.ConcludedNs != 0 {
		t.Errorf("poll 103 = %+v, want in-flight (empty outcome)", p3)
	}
	foundVote := false
	for _, v := range all.Votes {
		if v.PollID == 901 && v.Poller == 9 && v.Voter == 1 {
			foundVote = true
		}
	}
	if !foundVote {
		t.Errorf("supplied vote for poll 901 missing from %+v", all.Votes)
	}

	au2 := decode("/polls?au=2")
	for _, p := range au2.Polls {
		if p.AU != 2 {
			t.Errorf("au=2 filter returned AU %d", p.AU)
		}
	}
	if len(au2.Polls) != 1 || au2.Polls[0].PollID != 102 {
		t.Errorf("au=2 polls = %+v, want just 102", au2.Polls)
	}

	succ := decode("/polls?outcome=success&au=1")
	if len(succ.Polls) != 1 || succ.Polls[0].PollID != 101 {
		t.Errorf("outcome=success au=1 polls = %+v, want just 101", succ.Polls)
	}
	pending := decode("/polls?outcome=pending&au=1")
	for _, p := range pending.Polls {
		if p.Outcome != "" {
			t.Errorf("outcome=pending returned concluded poll %+v", p)
		}
	}

	if rec, _ := get(t, s.Handler(), "/polls?au=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("GET /polls?au=bogus = %d, want 400", rec.Code)
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	n := newTestNode(t, nil)
	s := New(n, Options{})
	seedSpans(n.Telemetry())

	rec, body := get(t, s.Handler(), "/flightrecorder")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /flightrecorder = %d", rec.Code)
	}
	var events []telemetry.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/flightrecorder body not JSON: %v (%s)", err, body)
	}
	kinds := make(map[string]int)
	var lastSeq uint64
	for i, e := range events {
		kinds[e.Kind]++
		if i > 0 && e.Seq <= lastSeq {
			t.Errorf("events out of order: seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
	}
	for _, want := range []string{"poll-start", "solicit", "vote-in", "vote-out", "conclude"} {
		if kinds[want] == 0 {
			t.Errorf("flight recorder has no %q events: %v", want, kinds)
		}
	}
}

// TestReloadEndpoint covers the on-the-fly config reload: scrub pace and
// bandwidth reach the running store's scrubber, the stats interval reaches
// the OnReload hook, and malformed bodies are rejected.
func TestReloadEndpoint(t *testing.T) {
	dir, err := os.MkdirTemp("", "lockss-admin-reload")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	spec := content.AUSpec{ID: 1, Name: "au-reload", Size: 128 << 10, BlockSize: 32 << 10}
	n, err := node.New(node.Config{
		ID:          1,
		Listen:      "127.0.0.1:0",
		AddressBook: map[ids.PeerID]string{2: "127.0.0.1:1", 3: "127.0.0.1:1"},
		Protocol:    testProtocolConfig(),
		Costs:       effort.DemoCostModel(),
		MBF:         effort.DemoMBFParams(),
		EffortUnit:  effort.DemoEffortUnit,
		Seed:        7,
		Store:       st,
		ScrubPace:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := content.NewRealReplica(spec, 1)
	refs := []ids.PeerID{2, 3}
	if err := n.AddAU(rep, refs); err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		n.Peer().SeedGrade(spec.ID, r, reputation.Even)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	var mu sync.Mutex
	var gotStats *time.Duration
	s := New(n, Options{OnReload: func(c ReloadConfig) {
		mu.Lock()
		defer mu.Unlock()
		gotStats = c.StatsInterval
	}})

	rec, body := post(t, s.Handler(), "/reload",
		`{"scrub_pace":"123ms","scrub_bandwidth":4096,"stats_interval":"2s"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /reload = %d (%s)", rec.Code, body)
	}
	if got := st.ScrubPace(); got != 123*time.Millisecond {
		t.Errorf("scrub pace after reload = %v, want 123ms", got)
	}
	if got := st.ScrubBandwidth(); got != 4096 {
		t.Errorf("scrub bandwidth after reload = %d, want 4096", got)
	}
	mu.Lock()
	if gotStats == nil || *gotStats != 2*time.Second {
		t.Errorf("OnReload stats interval = %v, want 2s", gotStats)
	}
	mu.Unlock()

	// Partial reload: only one knob moves, the others stay.
	rec, body = post(t, s.Handler(), "/reload", `{"scrub_bandwidth":0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial POST /reload = %d (%s)", rec.Code, body)
	}
	if got := st.ScrubBandwidth(); got != 0 {
		t.Errorf("scrub bandwidth after partial reload = %d, want 0 (unlimited)", got)
	}
	if got := st.ScrubPace(); got != 123*time.Millisecond {
		t.Errorf("scrub pace changed by partial reload: %v", got)
	}

	for _, bad := range []string{
		`{"scrub_pace":"not-a-duration"}`,
		`{"stats_interval":"-5s"}`,
		`{"scrub_bandwidth":-1}`,
		`{"unknown_knob":1}`,
		`{`,
	} {
		if rec, _ := post(t, s.Handler(), "/reload", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("POST /reload %s = %d, want 400", bad, rec.Code)
		}
	}
	if got := st.ScrubPace(); got != 123*time.Millisecond {
		t.Errorf("scrub pace changed by rejected reload: %v", got)
	}
}
