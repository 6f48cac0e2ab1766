package world

import (
	"testing"

	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sim"
)

func tinyConfig() Config {
	cfg := Default()
	cfg.Peers = 20
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = sim.Year / 2
	cfg.DamageDiskYears = 0 // no damage unless the test wants it
	return cfg
}

// effortByKind aggregates the loyal peers' ledgers per kind.
func effortByKind(w *World) (out [effort.NumKinds]effort.Seconds) {
	for _, p := range w.Peers {
		for k, v := range p.Ledger().ByKind {
			out[k] += v
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	bad := tinyConfig()
	bad.Peers = 0
	if _, err := New(bad); err == nil {
		t.Error("zero peers accepted")
	}
	bad = tinyConfig()
	bad.Peers = 5 // below quorum 10
	if _, err := New(bad); err == nil {
		t.Error("population below quorum accepted")
	}
	bad = tinyConfig()
	bad.Protocol.Quorum = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid protocol config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64, uint64) {
		cfg := tinyConfig()
		cfg.DamageDiskYears = 1
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Run()
		return w.Engine.Executed, w.Metrics.AccessFailureProbability(), w.Metrics.SuccessfulPolls()
	}
	e1, a1, s1 := run()
	e2, a2, s2 := run()
	if e1 != e2 || a1 != a2 || s1 != s2 {
		t.Errorf("runs with the same seed diverge: (%d,%v,%d) vs (%d,%v,%d)", e1, a1, s1, e2, a2, s2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := tinyConfig()
	cfg.DamageDiskYears = 1
	w1, _ := New(cfg)
	w1.Run()
	cfg2 := cfg
	cfg2.Seed = 999
	w2, _ := New(cfg2)
	w2.Run()
	if w1.Engine.Executed == w2.Engine.Executed && w1.Metrics.VotesSupplied == w2.Metrics.VotesSupplied {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestPopulationWiring(t *testing.T) {
	cfg := tinyConfig()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Peers) != cfg.Peers {
		t.Fatalf("built %d peers", len(w.Peers))
	}
	for i, p := range w.Peers {
		if p.ID() != PeerIDOf(i) {
			t.Errorf("peer %d has ID %v", i, p.ID())
		}
		if got := len(p.AUs()); got != cfg.AUs {
			t.Errorf("peer %d preserves %d AUs", i, got)
		}
		refs := p.ReferenceList(1)
		want := cfg.Protocol.RefListTarget
		if want > cfg.Peers-1 {
			want = cfg.Peers - 1
		}
		if len(refs) != want {
			t.Errorf("peer %d reference list %d, want %d", i, len(refs), want)
		}
		for _, r := range refs {
			if r == p.ID() {
				t.Errorf("peer %d lists itself", i)
			}
		}
	}
	if len(w.Specs()) != cfg.AUs {
		t.Error("spec catalogue wrong")
	}
}

func TestSeedAcquaintance(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = sim.Day // barely run
	w, _ := New(cfg)
	w.Run()
	// After seeding, every pair should be at least Even (decay aside).
	p := w.Peers[0]
	now := reputation.Time(w.Engine.Now())
	even := 0
	for _, q := range w.Peers[1:] {
		if g := p.Reputation(1).GradeOf(now, q.ID()); g >= reputation.Even {
			even++
		}
	}
	if even < cfg.Peers-1 {
		t.Errorf("only %d acquaintances seeded", even)
	}
}

func TestBurstDelivery(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol.DropUnknown = 0.5 // give admission a chance quickly
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := w.Peers[0]
	sent := -1
	burst := &BurstPayload{
		First: ids.MinionBase + 10,
		Count: 50,
		Template: protocol.Msg{
			Type:   protocol.MsgPoll,
			AU:     1,
			PollID: 7,
		},
		Sent: func(n int) { sent = n },
	}
	// Deliver directly (unit test of the expansion logic).
	burst.Deliver(w, victim)
	if sent <= 0 || sent > 50 {
		t.Fatalf("burst emitted %d", sent)
	}
	rep := victim.Reputation(1)
	if rep.AdmittedUnknown != 1 {
		t.Errorf("admitted %d unknown invitations, want exactly 1 (stream stops)", rep.AdmittedUnknown)
	}
	// The stream stopped at the first admission.
	if uint64(sent) != rep.AdmittedUnknown+rep.DroppedRandom {
		t.Errorf("emitted %d != admitted %d + dropped %d", sent, rep.AdmittedUnknown, rep.DroppedRandom)
	}
}

func TestBurstChargesLedger(t *testing.T) {
	cfg := tinyConfig()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger := new(effort.Ledger)
	sent := 0
	burst := &BurstPayload{
		First: ids.MinionBase + 100,
		Count: 10,
		Template: protocol.Msg{
			Type: protocol.MsgPoll, AU: 1, PollID: 9,
		},
		Proof:     effort.SimProof{Effort: 2, Genuine: true},
		ProofCost: 2,
		Ledger:    ledger,
		Sent:      func(n int) { sent = n },
	}
	burst.Deliver(w, w.Peers[0])
	if sent <= 0 {
		t.Fatalf("burst emitted %d", sent)
	}
	if want := effort.Seconds(2 * sent); ledger.Total != want || ledger.ByKind[effort.KindAttackIntro] != want {
		t.Errorf("ledger %v (intro %v), want %v: ProofCost per invitation emitted", ledger.Total, ledger.ByKind[effort.KindAttackIntro], want)
	}
}

// TestEnvChecksSymbolicProofs: the simulator's environment accepts a proof
// only if it is a genuine SimProof covering the cost asked, and derives a
// receipt only from a genuine SimProof.
func TestEnvChecksSymbolicProofs(t *testing.T) {
	var e Env
	ctx := []byte("ctx")
	for _, c := range []struct {
		p        effort.Proof
		min      effort.Seconds
		verifies bool
		receipt  bool
	}{
		{effort.SimProof{Effort: 2, Genuine: true}, 2, true, true},
		{effort.SimProof{Effort: 2, Genuine: true}, 3, false, true},
		{effort.SimProof{Effort: 2}, 1, false, false},
		{&effort.MBFProof{Units: 1, UnitCost: 5}, 1, false, false},
		{nil, 0, false, false},
	} {
		if got := e.VerifyProof(ctx, c.p, c.min); got != c.verifies {
			t.Errorf("VerifyProof(%+v, %v) = %v, want %v", c.p, c.min, got, c.verifies)
		}
		if _, got := e.EvalReceipt(ctx, c.p); got != c.receipt {
			t.Errorf("EvalReceipt(%+v) ok = %v, want %v", c.p, got, c.receipt)
		}
	}
}

func TestDamageProcessRate(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 2 * sim.Year
	cfg.DamageDiskYears = 1
	cfg.AUsPerDisk = 2 // one disk per peer at AUs=2
	w, _ := New(cfg)
	w.Run()
	// Expected events: peers x duration/diskyears = 20 x 2 = 40.
	got := float64(w.Metrics.DamageEvents)
	if got < 20 || got > 65 {
		t.Errorf("damage events %v, want ~40", got)
	}
}

func TestDefenderEffortAggregation(t *testing.T) {
	cfg := tinyConfig()
	w, _ := New(cfg)
	w.Run()
	if w.DefenderEffort() <= 0 {
		t.Fatal("no defender effort recorded")
	}
	byKind := effortByKind(w)
	var sum effort.Seconds
	for _, v := range byKind {
		sum += v
	}
	if diff := float64(sum - w.DefenderEffort()); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("kind sum %v != total %v", sum, w.DefenderEffort())
	}
	for _, kind := range []effort.Kind{effort.KindVote, effort.KindEval, effort.KindIntroGen} {
		if byKind[kind] <= 0 {
			t.Errorf("no %q effort recorded", kind)
		}
	}
}

// TestInstallProgressReportsExecutedEvents: the callback fires once per
// stride executed events, with the running count and a clock that never
// goes back.
func TestInstallProgressReportsExecutedEvents(t *testing.T) {
	w, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const stride = 1000
	var calls uint64
	var last sim.Time
	w.InstallProgress(stride, func(vt sim.Time, events uint64) {
		calls++
		if events != calls*stride {
			t.Errorf("call %d reported %d events, want %d", calls, events, calls*stride)
		}
		if vt < last {
			t.Errorf("call %d: virtual time went back, %v after %v", calls, vt, last)
		}
		last = vt
	})
	w.Run()
	if want := w.EventsExecuted() / stride; calls != want || calls < 2 {
		t.Errorf("%d progress calls for %d events at stride %d, want %d", calls, w.EventsExecuted(), stride, want)
	}
}
