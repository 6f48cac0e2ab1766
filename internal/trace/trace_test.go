package trace

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/wire"
)

// testHeader builds a minimal valid header: one tiny AU, default protocol.
func testHeader() Header {
	return Header{
		Peer:       1,
		Seed:       42,
		StartT:     1_000_000,
		Protocol:   protocol.DefaultConfig(),
		Costs:      effort.DefaultCostModel(),
		MBF:        effort.DemoMBFParams(),
		EffortUnit: float64(effort.DemoEffortUnit),
		Friends:    []ids.PeerID{2, 3},
		AUs: []AUHeader{{
			ID: 1, Name: "au-test", Size: 64 << 10, BlockSize: 32 << 10,
			Salt:   9,
			Refs:   []ids.PeerID{2, 3},
			Grades: []GradeRef{{Peer: 2, Grade: 2}, {Peer: 3, Grade: 2}},
		}},
		Injected: []DamageRef{{AU: 1, Block: 1}},
	}
}

// testFrame encodes one well-formed wire message.
func testFrame(t testing.TB) []byte {
	t.Helper()
	frame, err := wire.Encode(&protocol.Msg{
		Type: protocol.MsgPollAck, AU: 1, PollID: 7, Poller: 2, Voter: 1, Accept: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// recordSample writes a header plus one event of every kind and returns the
// serialized trace.
func recordSample(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	if err := r.WriteHeader(testHeader()); err != nil {
		t.Fatal(err)
	}
	r.MsgIn(2, testFrame(t), nil, 1_000_010)
	r.TimerFired(1, 1_000_020)
	r.DamageNoticed(1, 0, 1_000_030)
	r.MsgOut(3, &protocol.Msg{Type: protocol.MsgPoll, AU: 1, PollID: 9}, 1_000_040)
	r.PollConcluded(1, 1, 9, protocol.OutcomeSuccess, 1_000_000, 1_000_050)
	r.RepairApplied(1, 1, 9, 0, 1_000_060)
	r.Alarm(1, 1, 9, 1_000_070)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecorderRoundTrip(t *testing.T) {
	raw := recordSample(t)
	tr, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Peer != 1 || tr.Header.Seed != 42 || tr.Header.Version != Version {
		t.Errorf("header did not round-trip: %+v", tr.Header)
	}
	wantKinds := []string{KindRecv, KindTimer, KindDamage, KindSend, KindPoll, KindRepair, KindAlarm}
	if len(tr.Events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(tr.Events), len(wantKinds))
	}
	for i, rec := range tr.Events {
		if rec.Kind != wantKinds[i] {
			t.Errorf("event %d kind %q, want %q", i, rec.Kind, wantKinds[i])
		}
		if rec.Seq != uint64(i+1) {
			t.Errorf("event %d seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	wantOut := []string{
		"send to=3 type=Poll au=1 poll=9",
		"poll au=1 outcome=success",
		"repair au=1 block=0",
		"alarm au=1",
	}
	got := tr.Outputs()
	if len(got) != len(wantOut) {
		t.Fatalf("outputs %v, want %v", got, wantOut)
	}
	for i := range got {
		if got[i] != wantOut[i] {
			t.Errorf("output %d = %q, want %q", i, got[i], wantOut[i])
		}
	}
	// A block-0 repair must survive serialization (no omitempty on Block).
	if tr.Events[5].Block != 0 || tr.Events[5].AU != 1 {
		t.Errorf("repair record lost its block: %+v", tr.Events[5])
	}
}

func TestRecorderDropsEventsBeforeHeader(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.TimerFired(1, 5) // dropped: no header yet
	if err := r.WriteHeader(testHeader()); err != nil {
		t.Fatal(err)
	}
	r.TimerFired(2, 6)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Events[0].Timer != 2 {
		t.Fatalf("pre-header event leaked into the trace: %+v", tr.Events)
	}
	if err := r.WriteHeader(testHeader()); err == nil {
		t.Error("second WriteHeader must fail")
	}
}

func TestRecorderRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	if err := r.WriteHeader(testHeader()); err != nil {
		t.Fatal(err)
	}
	r.MsgIn(2, make([]byte, MaxFrameBytes+1), nil, 1)
	if r.Close() == nil {
		t.Error("oversized frame must set the sticky error")
	}
}

// mutateLine returns the trace with line n (0-based) replaced by repl; a nil
// repl deletes the line.
func mutateLine(t testing.TB, raw []byte, n int, repl []byte) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if n >= len(lines) {
		t.Fatalf("trace has %d lines, wanted line %d", len(lines), n)
	}
	if repl == nil {
		lines = append(lines[:n], lines[n+1:]...)
	} else {
		lines[n] = repl
	}
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

// unissuedTimerTrace is the sample with its timer record firing timer 2 — a
// firing that arms nothing in its place, so its slot stays free — followed
// by a record firing the engine ID that slot would carry next: never issued.
func unissuedTimerTrace(t testing.TB) []byte {
	t.Helper()
	raw := mutateLine(t, recordSample(t), 2, []byte(`{"k":"timer","q":2,"t":1000020,"timer":2,"block":0}`))
	return append(raw, `{"k":"timer","q":8,"t":1000080,"timer":4294967298,"block":0}`+"\n"...)
}

// TestReplayUnissuedTimerDiverges: a timer record naming an ID the replay's
// queue never issued is a divergence, not a crash — even when the ID names a
// free slot at the generation that slot now carries.
func TestReplayUnissuedTimerDiverges(t *testing.T) {
	tr, err := Read(bytes.NewReader(unissuedTimerTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	const want = "seq 8: timer 4294967298 fired in recording but is not armed in replay"
	if !slices.Contains(res.Divergences, want) {
		t.Errorf("divergences %q lack %q", res.Divergences, want)
	}
}

func TestReadRejectsCorruptTraces(t *testing.T) {
	raw := recordSample(t)
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "empty input"},
		{"header-not-json", []byte("{\n"), "parse header"},
		{"header-wrong-kind", mutateLine(t, raw, 0,
			bytes.Replace(lines[0], []byte(`"k":"header"`), []byte(`"k":"nope"`), 1)), "kind"},
		{"header-wrong-version", mutateLine(t, raw, 0,
			bytes.Replace(lines[0], []byte(fmt.Sprintf(`"v":%d`, Version)), []byte(`"v":99`), 1)), "version 99"},
		{"record-truncated", append(append([]byte{}, raw...), lines[1][:len(lines[1])/2]...), "parse"},
		{"record-unknown-kind", mutateLine(t, raw, 3,
			bytes.Replace(lines[3], []byte(`"k":"damage"`), []byte(`"k":"mystery"`), 1)), "unknown kind"},
		{"record-missing", mutateLine(t, raw, 2, nil), "out of order"},
		{"record-duplicated", mutateLine(t, raw, 3, lines[2]), "out of order"},
		{"records-reordered", mutateLine(t, mutateLine(t, raw, 2, lines[3]), 3, lines[2]), "out of order"},
		{"recv-bad-frame", mutateLine(t, raw, 1,
			[]byte(`{"k":"recv","q":1,"t":5,"from":2,"frame":"AAAA"}`)), "does not decode"},
		{"damage-unknown-au", mutateLine(t, raw, 3,
			[]byte(`{"k":"damage","q":3,"t":5,"au":77,"block":0}`)), "unknown AU"},
		{"damage-block-range", mutateLine(t, raw, 3,
			[]byte(`{"k":"damage","q":3,"t":5,"au":1,"block":99}`)), "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("Read accepted a corrupt trace")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestReadToleratesTrailingBlankLine(t *testing.T) {
	raw := append(recordSample(t), '\n')
	if _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderValidateBounds(t *testing.T) {
	h := testHeader()
	h.MBF.TableWords = 1 << 30
	if err := (&h).validate(); err == nil {
		t.Error("gigantic MBF table accepted")
	}
	h = testHeader()
	h.AUs[0].Size = 1 << 40
	if err := (&h).validate(); err == nil {
		t.Error("gigantic AU accepted")
	}
	h = testHeader()
	h.Injected = []DamageRef{{AU: 1, Block: 99}}
	if err := (&h).validate(); err == nil {
		t.Error("out-of-range injected damage accepted")
	}
	h = testHeader()
	h.AUs = nil
	if err := (&h).validate(); err == nil {
		t.Error("AU-less header accepted")
	}
}

// TestReplayReportDeterminism: replaying the same trace twice produces
// byte-identical reports, even when the trace diverges (here: a timer record
// that replay never arms, because no inputs precede it).
func TestReplayReportDeterminism(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	h := testHeader()
	h.Injected = nil
	if err := r.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	r.TimerFired(9999, 1_000_010) // never armed in replay
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Replay(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Report() != res2.Report() {
		t.Errorf("reports differ:\n%s\n----\n%s", res1.Report(), res2.Report())
	}
	if !res1.Diverged() {
		t.Error("phantom timer did not register as a divergence")
	}
}
