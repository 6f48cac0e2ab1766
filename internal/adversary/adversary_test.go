package adversary

import (
	"testing"

	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sim"
	"lockss/internal/world"
)

func TestPulseVictims(t *testing.T) {
	rnd := prng.New(1)
	p := Pulse{Coverage: 0.4}
	v := p.victims(rnd, 100)
	if len(v) != 40 {
		t.Errorf("40%% of 100 = %d victims", len(v))
	}
	seen := map[int]bool{}
	for _, i := range v {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatal("invalid or duplicate victim")
		}
		seen[i] = true
	}
	if len((Pulse{Coverage: 1.5}).victims(rnd, 10)) != 10 {
		t.Error("coverage above 1 should clamp")
	}
	if (Pulse{Coverage: 0}).victims(rnd, 10) != nil {
		t.Error("zero coverage should have no victims")
	}
	// Small fractions round up: some victim is always chosen.
	if len((Pulse{Coverage: 0.01}).victims(rnd, 10)) != 1 {
		t.Error("fractional coverage should round up")
	}
}

func tinyWorld(t *testing.T) world.Config {
	t.Helper()
	cfg := world.Default()
	cfg.Peers = 20
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = sim.Year / 2
	cfg.DamageDiskYears = 0
	return cfg
}

func TestPipeStoppagePulseCycle(t *testing.T) {
	cfg := tinyWorld(t)
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &PipeStoppage{Pulse: Pulse{Coverage: 0.5, Duration: 30 * sim.Day, Recuperation: 30 * sim.Day}}
	a.Install(w)

	// Sample the stopped-node count during attack and recuperation windows.
	counts := map[string]int{}
	w.Engine.At(sim.Time(15*sim.Day), func() { counts["attack"] = stopped(w) })
	w.Engine.At(sim.Time(45*sim.Day), func() { counts["recup"] = stopped(w) })
	w.Engine.At(sim.Time(75*sim.Day), func() { counts["attack2"] = stopped(w) })
	w.Run()

	if counts["attack"] != 10 || counts["attack2"] != 10 {
		t.Errorf("stopped during attack: %v, want 10", counts)
	}
	if counts["recup"] != 0 {
		t.Errorf("stopped during recuperation: %d, want 0", counts["recup"])
	}
	if a.Name() == "" {
		t.Error("empty name")
	}
}

func stopped(w *world.World) int {
	n := 0
	for i := range w.Peers {
		if w.Net.Stopped(world.PeerIDOf(i)) {
			n++
		}
	}
	return n
}

func TestAdmissionFloodTriggersRefractory(t *testing.T) {
	cfg := tinyWorld(t)
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &AdmissionFlood{Pulse: Pulse{Coverage: 1.0, Duration: cfg.Duration, Recuperation: 30 * sim.Day}}
	a.Install(w)

	inRefractory := 0
	w.Engine.At(sim.Time(30*sim.Day), func() {
		now := reputation.Time(w.Engine.Now())
		for _, p := range w.Peers {
			if p.Reputation(1).InRefractory(now) {
				inRefractory++
			}
		}
	})
	w.Run()
	if inRefractory < len(w.Peers)*3/4 {
		t.Errorf("only %d/%d victims in refractory mid-attack", inRefractory, len(w.Peers))
	}
	// The flood is effortless.
	if w.AdversaryLedger.Total != 0 {
		t.Errorf("admission flood charged %v effort", w.AdversaryLedger.Total)
	}
	// Victims considered (and rejected) garbage: penalized identities pile
	// up as debt entries.
	if w.Peers[0].Stats().BadProofs == 0 {
		t.Error("no garbage invitation was ever considered")
	}
}

func TestBruteForceSpendsAndSchedules(t *testing.T) {
	cfg := tinyWorld(t)
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &BruteForce{Defection: DefectRemaining}
	a.Install(w)
	w.Run()
	if w.AdversaryLedger.ByKind[effort.KindAttackIntro] == 0 {
		t.Error("brute force paid no introductory effort")
	}
	if w.AdversaryLedger.ByKind[effort.KindAttackRemainder] == 0 {
		t.Error("REMAINING strategy never sent a PollProof")
	}
	// Victims computed votes for the adversary (wasted effort), visible as
	// receipt timeouts.
	timeouts := uint64(0)
	for _, p := range w.Peers {
		timeouts += p.Stats().ReceiptsTimedOut
	}
	if timeouts == 0 {
		t.Error("no victim ever timed out waiting for the adversary's receipt")
	}
}

func TestBruteForceIntroNeverSendsProof(t *testing.T) {
	cfg := tinyWorld(t)
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &BruteForce{Defection: DefectIntro}
	a.Install(w)
	w.Run()
	if w.AdversaryLedger.ByKind[effort.KindAttackRemainder] != 0 {
		t.Error("INTRO strategy sent PollProofs")
	}
	proofTimeouts := uint64(0)
	for _, p := range w.Peers {
		proofTimeouts += p.Stats().ProofsTimedOut
	}
	if proofTimeouts == 0 {
		t.Error("INTRO desertion never triggered a reservation timeout")
	}
}

func TestBruteForceNoneSendsValidReceipts(t *testing.T) {
	cfg := tinyWorld(t)
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &BruteForce{Defection: DefectNone}
	a.Install(w)
	w.Run()
	if w.AdversaryLedger.ByKind[effort.KindAttackEval] == 0 {
		t.Error("NONE strategy never evaluated a vote")
	}
	// Full participation leaves no receipt timeouts attributable to the
	// adversary beyond stragglers at the horizon; penalized receipts would
	// show up as bogus-receipt penalties instead. Check votes were indeed
	// supplied to minions.
	votes := uint64(0)
	for _, p := range w.Peers {
		votes += p.Stats().VotesSupplied
	}
	if votes == 0 {
		t.Error("no votes supplied at all")
	}
}

func TestMinionIdentityRange(t *testing.T) {
	if !ids.PeerID(ids.MinionBase + 5).IsMinion() {
		t.Error("minion range check broken")
	}
	if ids.PeerID(5).IsMinion() {
		t.Error("loyal peer classified as minion")
	}
}

func TestDefectionStrings(t *testing.T) {
	if DefectIntro.String() != "INTRO" || DefectRemaining.String() != "REMAINING" || DefectNone.String() != "NONE" {
		t.Error("defection strings wrong")
	}
	var names []string
	for _, a := range []Adversary{
		&PipeStoppage{Pulse: Pulse{Coverage: 0.5, Duration: sim.Day}},
		&AdmissionFlood{Pulse: Pulse{Coverage: 1, Duration: sim.Day}},
		&BruteForce{Defection: DefectNone},
	} {
		names = append(names, a.Name())
	}
	for i, n := range names {
		if n == "" {
			t.Errorf("adversary %d has empty name", i)
		}
	}
}

var _ = protocol.MsgPoll // keep the protocol import for future assertions

// TestVoteFloodHasNoEffect: unsolicited votes are ignored before any
// expensive processing (the §5.1 vote-flood defense). The flood must not
// change poll outcomes or charge victims effort beyond baseline.
func TestVoteFloodHasNoEffect(t *testing.T) {
	cfg := tinyWorld(t)

	base, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.Run()
	baseEffort := base.DefenderEffort()
	basePolls := base.Metrics.SuccessfulPolls()

	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &VoteFlood{
		Pulse:       Pulse{Coverage: 1.0, Duration: cfg.Duration, Recuperation: 30 * sim.Day},
		VotesPerDay: 48,
	}
	a.Install(w)
	w.Run()

	if a.pollSeq == 0 {
		t.Fatal("flood sent nothing")
	}
	if got := w.Metrics.SuccessfulPolls(); got != basePolls {
		t.Errorf("vote flood changed poll outcomes: %d vs %d", got, basePolls)
	}
	// Ignoring an unsolicited vote costs nothing measurable.
	if got := w.DefenderEffort(); float64(got) > float64(baseEffort)*1.001 {
		t.Errorf("vote flood raised defender effort: %v vs %v", got, baseEffort)
	}
	votesIgnored := uint64(0)
	for _, p := range w.Peers {
		votesIgnored += p.Stats().VotesReceived
	}
	// VotesReceived only counts solicited votes; the flood adds none beyond
	// the baseline count.
	if w.AdversaryLedger.Total != 0 {
		t.Error("vote flood should be effortless for the adversary")
	}
}

// TestCombinedAdversary: §9's combined-strategy question — a pipe stoppage
// softening the population while a brute-force attacker drains it.
func TestCombinedAdversary(t *testing.T) {
	cfg := tinyWorld(t)
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &Combined{Parts: []Adversary{
		&PipeStoppage{Pulse: Pulse{Coverage: 0.4, Duration: 30 * sim.Day, Recuperation: 30 * sim.Day}},
		&BruteForce{Defection: DefectRemaining},
	}}
	if a.Name() == "" {
		t.Error("empty combined name")
	}
	a.Install(w)
	w.Run()
	if w.AdversaryLedger.Total == 0 {
		t.Error("combined attack spent nothing")
	}
	if w.Net.DroppedStoppage == 0 {
		t.Error("combined attack never stopped a pipe")
	}
	if w.Metrics.SuccessfulPolls() == 0 {
		t.Error("combined tiny attack should not collapse the system")
	}
}

// TestInstallKeepsCallerParameters: Install resolves its defaults into the
// run's own state, so after Install an adversary's exported fields still
// read what the caller set. The value of an uninstalled adversary is its
// parameter set, which the experiment memo keys runs on.
func TestInstallKeepsCallerParameters(t *testing.T) {
	cfg := tinyWorld(t)
	cfg.Duration = 30 * sim.Day
	pulse := Pulse{Coverage: 0.5, Duration: 10 * sim.Day, Recuperation: 10 * sim.Day}
	bf := &BruteForce{Defection: DefectRemaining}
	af := &AdmissionFlood{Pulse: pulse}
	vf := &VoteFlood{Pulse: pulse}
	for _, a := range []Adversary{bf, af, vf} {
		w, err := world.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.Install(w)
		w.Run()
	}
	if bf.Minions != 0 || bf.VolleyLimit != 0 || bf.Coverage != 0 {
		t.Errorf("BruteForce.Install wrote defaults into its parameters: %+v", *bf)
	}
	if af.VolleyLimit != 0 {
		t.Errorf("AdmissionFlood.Install wrote VolleyLimit %d", af.VolleyLimit)
	}
	if vf.VotesPerDay != 0 {
		t.Errorf("VoteFlood.Install wrote VotesPerDay %v", vf.VotesPerDay)
	}
	if vf.pollSeq == 0 {
		t.Error("vote flood sent nothing at its default rate")
	}
}
