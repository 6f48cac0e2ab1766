package world

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"lockss/internal/telemetry"
)

// worldFingerprint captures every observable of a finished run, with floats
// kept as exact bit patterns, so a refactor that reorders a float
// accumulation shows up even where the rendered goldens round it away.
type worldFingerprint struct {
	events       uint64
	accessFail   uint64 // Float64bits
	succPolls    uint64
	totalPolls   uint64
	votes        uint64
	alarms       uint64
	damageEvents uint64
	repairsFixed uint64
	damagedNow   int
	defEffort    uint64 // Float64bits
	advEffort    uint64 // Float64bits
	netSent      uint64
	netDelivered uint64
	netDropped   uint64
	netBytes     uint64
	joined       int
	ledgers      uint64 // FNV-1a over every peer's ledger-total bits, in peer order
}

func fingerprintRun(t *testing.T, cfg Config) worldFingerprint {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	return fingerprintOf(w)
}

// fingerprintOf fingerprints a finished run.
func fingerprintOf(w *World) worldFingerprint {
	fp := worldFingerprint{
		events:       w.EventsExecuted(),
		accessFail:   math.Float64bits(w.Metrics.AccessFailureProbability()),
		succPolls:    w.Metrics.SuccessfulPolls(),
		totalPolls:   w.Metrics.TotalPolls(),
		votes:        w.Metrics.VotesSupplied,
		alarms:       w.Metrics.Alarms,
		damageEvents: w.Metrics.DamageEvents,
		repairsFixed: w.Metrics.RepairsFixed,
		damagedNow:   w.Metrics.DamagedNow(),
		defEffort:    math.Float64bits(float64(w.DefenderEffort())),
		advEffort:    math.Float64bits(float64(w.AdversaryLedger.Total)),
		netSent:      w.Net.Sent,
		netDelivered: w.Net.Delivered,
		netDropped:   w.Net.DroppedStoppage,
		netBytes:     w.Net.BytesDelivered,
		joined:       w.Joins.Joined,
	}
	h := fnv.New64a()
	var b [8]byte
	for _, p := range w.Peers {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(p.Ledger().Total)))
		h.Write(b[:])
	}
	fp.ledgers = h.Sum64()
	return fp
}

// TestWorldFingerprintPinned pins a 24-peer run with storage damage and three
// churn joiners bit for bit. The expected values were captured at commit
// 0e426c8 (whose sharded core produced them at 1, 2, 3 and 8 shards) and must
// not move without a stated reason. Shards is now a deprecated no-op; running
// at 0 and 8 pins that it stays one.
func TestWorldFingerprintPinned(t *testing.T) {
	want := worldFingerprint{
		events: 22611, accessFail: 0x3fa34242f8225c36,
		succPolls: 103, totalPolls: 109, votes: 2768, alarms: 0,
		damageEvents: 9, repairsFixed: 8, damagedNow: 0,
		defEffort: 0x40a45695810624bf, advEffort: 0,
		netSent: 13474, netDelivered: 13474, netDropped: 0, netBytes: 3355900,
		joined: 3, ledgers: 0x663751c8a9a506a8,
	}
	for _, shards := range []int{0, 8} {
		cfg := tinyConfig()
		cfg.Peers = 24
		cfg.DamageDiskYears = 1
		cfg.Shards = shards
		cfg.Churn = Churn{JoinPerYear: 20, MaxJoins: 3, FriendsPerJoiner: 3}
		got := fingerprintRun(t, cfg)
		if got != want {
			t.Errorf("Shards=%d fingerprint moved:\n got %+v\nwant %+v", shards, got, want)
		}
	}
}

// TestTelemetryDoesNotPerturbRun pins the sim-side telemetry contract:
// attaching a recorder leaves the run's fingerprint bit-identical to a
// telemetry-free run, and the histograms it feeds from virtual time are
// populated.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.Peers = 24
	cfg.DamageDiskYears = 1
	bare := fingerprintRun(t, cfg)

	tel := telemetry.New()
	cfg.Telemetry = tel
	if with := fingerprintRun(t, cfg); with != bare {
		t.Errorf("telemetry perturbed the run:\n with %+v\n bare %+v", with, bare)
	}
	if pd := tel.PollDuration.Snapshot(); pd.Count == 0 || pd.Sum <= 0 {
		t.Errorf("no poll durations recorded: %+v", pd)
	}
	if sv := tel.SolicitToVote.Snapshot(); sv.Count == 0 {
		t.Errorf("no solicitation→vote latencies recorded: %+v", sv)
	}
}
