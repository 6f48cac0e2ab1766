package world

import (
	"testing"

	"lockss/internal/telemetry"
)

// telemetryRun executes cfg with a fresh telemetry recorder attached and
// returns the run's fingerprint plus every histogram family's snapshot.
func telemetryRun(t *testing.T, cfg Config) (worldFingerprint, map[string]telemetry.Snapshot) {
	t.Helper()
	tel := telemetry.New()
	cfg.Telemetry = tel
	fp, _ := fingerprintRun(t, cfg, Churn{})
	snaps := make(map[string]telemetry.Snapshot)
	for _, fam := range telemetry.HistogramFamilies() {
		snaps[fam.Name] = fam.Of(tel).Snapshot()
	}
	return fp, snaps
}

// TestTelemetryDeterministicAcrossShards pins the sim-side telemetry
// contract: attaching a recorder does not perturb the simulation (the
// fingerprint matches a telemetry-free run bit for bit), and the histograms
// it records are fed from virtual time, so their snapshots are identical at
// every shard count.
func TestTelemetryDeterministicAcrossShards(t *testing.T) {
	cfg := tinyConfig()
	cfg.Peers = 24
	cfg.DamageDiskYears = 1

	bare, _ := fingerprintRun(t, cfg, Churn{})
	ref, refSnaps := telemetryRun(t, cfg)
	if ref != bare {
		t.Errorf("telemetry perturbed the run:\n with %+v\n bare %+v", ref, bare)
	}
	if pd := refSnaps["poll_duration"]; pd.Count == 0 || pd.Sum <= 0 {
		t.Fatalf("no poll durations recorded: %+v", pd)
	}
	if sv := refSnaps["solicit_vote"]; sv.Count == 0 {
		t.Errorf("no solicitation→vote latencies recorded: %+v", sv)
	}

	for _, shards := range []int{2, 8} {
		c := cfg
		c.Shards = shards
		got, gotSnaps := telemetryRun(t, c)
		if got != ref {
			t.Errorf("shards=%d fingerprint mismatch:\n got %+v\nwant %+v", shards, got, ref)
		}
		for name, want := range refSnaps {
			if gotSnaps[name] != want {
				t.Errorf("shards=%d: %s histogram differs:\n got %+v\nwant %+v",
					shards, name, gotSnaps[name], want)
			}
		}
	}
}
