package reputation

import (
	"testing"

	"lockss/internal/ids"
	"lockss/internal/prng"
)

const day = Duration(24 * 3600 * 1e9)

func params() Params { return DefaultParams(day, 90*day) }

func at(days float64) Time { return Time(days * float64(day)) }

func TestGradeTransitions(t *testing.T) {
	l := NewList(params())
	p := ids.PeerID(1)
	if l.GradeOf(0, p) != Unknown {
		t.Fatal("fresh peer should be unknown")
	}
	l.Raise(0, p) // creates a debt entry, then raises it
	if g := l.GradeOf(0, p); g != Even {
		t.Errorf("after first raise: %v, want even", g)
	}
	l.Raise(0, p)
	if g := l.GradeOf(0, p); g != Credit {
		t.Errorf("after second raise: %v, want credit", g)
	}
	l.Raise(0, p)
	if g := l.GradeOf(0, p); g != Credit {
		t.Errorf("credit should saturate: %v", g)
	}
	l.Lower(0, p)
	if g := l.GradeOf(0, p); g != Even {
		t.Errorf("after lower: %v, want even", g)
	}
	l.Lower(0, p)
	l.Lower(0, p)
	if g := l.GradeOf(0, p); g != Debt {
		t.Errorf("debt should saturate: %v", g)
	}
	l.Raise(0, p)
	l.Penalize(0, p)
	if g := l.GradeOf(0, p); g != Debt {
		t.Errorf("penalize should force debt: %v", g)
	}
}

func TestDecayTowardDebt(t *testing.T) {
	l := NewList(params())
	p := ids.PeerID(1)
	l.Raise(0, p)
	l.Raise(0, p) // credit at t=0
	if g := l.GradeOf(at(89), p); g != Credit {
		t.Errorf("no decay before interval: %v", g)
	}
	if g := l.GradeOf(at(91), p); g != Even {
		t.Errorf("one decay step: %v, want even", g)
	}
	if g := l.GradeOf(at(181), p); g != Debt {
		t.Errorf("two decay steps: %v, want debt", g)
	}
	if g := l.GradeOf(at(500), p); g != Debt {
		t.Errorf("debt is the floor: %v", g)
	}
}

func TestInteractionResetsDecayClock(t *testing.T) {
	l := NewList(params())
	p := ids.PeerID(1)
	l.Raise(0, p)      // even
	l.Raise(at(80), p) // credit, clock reset at day 80
	if g := l.GradeOf(at(160), p); g != Credit {
		t.Errorf("decay clock not reset: %v", g)
	}
}

func TestConsiderKnownGood(t *testing.T) {
	l := NewList(params())
	rnd := prng.New(1)
	p := ids.PeerID(1)
	l.Raise(0, p) // even
	d := l.Consider(at(1), p, rnd)
	if d != AdmitKnown {
		t.Fatalf("even peer decision %v", d)
	}
	// Second invitation within the same refractory period is rate-capped.
	if d := l.Consider(at(1.2), p, rnd); d != RejectRateCap {
		t.Errorf("rate cap not applied: %v", d)
	}
	// After the period it is admitted again.
	if d := l.Consider(at(2.5), p, rnd); d != AdmitKnown {
		t.Errorf("rate cap did not lapse: %v", d)
	}
}

func TestConsiderUnknownDropsAndRefractory(t *testing.T) {
	l := NewList(params())
	rnd := prng.New(7)
	// Hammer with unknown identities until one is admitted.
	admitted := 0
	tries := 0
	now := Time(0)
	for admitted == 0 && tries < 1000 {
		tries++
		d := l.Consider(now, ids.PeerID(uint32(1000+tries)), rnd)
		switch d {
		case AdmitUnknown:
			admitted++
		case RejectDropped:
		default:
			t.Fatalf("unexpected decision %v", d)
		}
	}
	if admitted != 1 {
		t.Fatal("no unknown invitation ever admitted")
	}
	if tries < 2 {
		t.Log("admitted on first try (possible but unlikely)")
	}
	// Now in refractory: every unknown/in-debt invitation is auto-rejected.
	for i := 0; i < 50; i++ {
		if d := l.Consider(now+Time(day)/2, ids.PeerID(uint32(5000+i)), rnd); d != RejectRefractory {
			t.Fatalf("refractory not enforced: %v", d)
		}
	}
	if !l.InRefractory(now + Time(day)/2) {
		t.Error("InRefractory false during period")
	}
	// Known-good peers still get through during the refractory period.
	good := ids.PeerID(42)
	l.Raise(now, good)
	if d := l.Consider(now+Time(day)/2, good, rnd); d != AdmitKnown {
		t.Errorf("even peer blocked by refractory: %v", d)
	}
	// After the period, unknowns are considered again (subject to drops).
	later := now + Time(day) + 1
	if l.InRefractory(later) {
		t.Error("refractory should have lapsed")
	}
}

func TestDropRates(t *testing.T) {
	l := NewList(params())
	rnd := prng.New(99)
	debtor := ids.PeerID(9)
	l.Penalize(0, debtor)

	const trials = 20000
	dropsUnknown, dropsDebt := 0, 0
	for i := 0; i < trials; i++ {
		// Fresh list each time to avoid refractory interference.
		lu := NewList(params())
		if lu.Consider(0, ids.PeerID(uint32(100+i)), rnd) == RejectDropped {
			dropsUnknown++
		}
		ld := NewList(params())
		ld.Penalize(0, debtor)
		if ld.Consider(0, debtor, rnd) == RejectDropped {
			dropsDebt++
		}
	}
	if rate := float64(dropsUnknown) / trials; rate < 0.88 || rate > 0.92 {
		t.Errorf("unknown drop rate %.3f, want ~0.90", rate)
	}
	if rate := float64(dropsDebt) / trials; rate < 0.78 || rate > 0.82 {
		t.Errorf("debt drop rate %.3f, want ~0.80", rate)
	}
}

func TestWhitewashingUnattractive(t *testing.T) {
	// DropUnknown must never be below DropDebt, even if misconfigured.
	p := params()
	p.DropUnknown = 0.5
	p.DropDebt = 0.9
	l := NewList(p)
	if l.params.DropUnknown < l.params.DropDebt {
		t.Error("normalization failed: whitewashing would pay")
	}
}

func TestIntroductionBypassesRefractory(t *testing.T) {
	l := NewList(params())
	rnd := prng.New(3)
	// Trigger refractory with an admitted unknown.
	for i := 0; ; i++ {
		if l.Consider(0, ids.PeerID(uint32(100+i)), rnd) == AdmitUnknown {
			break
		}
	}
	introducer, introducee := ids.PeerID(1), ids.PeerID(2)
	l.AddIntroduction(0, introducer, introducee)
	if l.introOf(introducee) < 0 {
		t.Fatal("introduction not recorded")
	}
	d := l.Consider(Time(day)/2, introducee, rnd)
	if d != AdmitIntroduced {
		t.Fatalf("introduced peer decision %v", d)
	}
	// Treated as even afterwards.
	if g := l.GradeOf(Time(day)/2, introducee); g != Even {
		t.Errorf("introduced peer grade %v, want even", g)
	}
	// Consumed: a second invitation does not bypass.
	if l.introOf(introducee) >= 0 {
		t.Error("introduction not consumed")
	}
}

func TestIntroductionForgetSemantics(t *testing.T) {
	l := NewList(params())
	a, b := ids.PeerID(1), ids.PeerID(2) // introducers
	x, y, z := ids.PeerID(10), ids.PeerID(11), ids.PeerID(12)
	l.AddIntroduction(0, a, x)
	l.AddIntroduction(0, a, y) // a introduces two peers
	l.AddIntroduction(0, b, z)
	if len(l.intros) != 3 {
		t.Fatalf("pending %d", len(l.intros))
	}
	// Consuming x's introduction (by a) forgets a's other introductions.
	rnd := prng.New(5)
	if d := l.Consider(0, x, rnd); d != AdmitIntroduced {
		t.Fatalf("decision %v", d)
	}
	if l.introOf(y) >= 0 {
		t.Error("introducer's other introductions not forgotten")
	}
	if l.introOf(z) < 0 {
		t.Error("unrelated introduction was forgotten")
	}
}

func TestIntroductionReintroductionOverwrites(t *testing.T) {
	l := NewList(params())
	a, b, x := ids.PeerID(1), ids.PeerID(2), ids.PeerID(10)
	l.AddIntroduction(0, a, x)
	l.AddIntroduction(0, b, x) // b re-introduces x
	if len(l.intros) != 1 {
		t.Fatalf("pending %d", len(l.intros))
	}
	l.ForgetIntroducer(b)
	if l.introOf(x) >= 0 {
		t.Error("ForgetIntroducer left the overwritten introduction")
	}
}

func TestIntroductionCap(t *testing.T) {
	p := params()
	p.MaxIntroductions = 3
	l := NewList(p)
	for i := 0; i < 10; i++ {
		l.AddIntroduction(0, ids.PeerID(1), ids.PeerID(uint32(100+i)))
	}
	if len(l.intros) != 3 {
		t.Errorf("cap not enforced: %d", len(l.intros))
	}
	if l.IntroductionsCut != 7 {
		t.Errorf("cut counter %d", l.IntroductionsCut)
	}
}

func TestIntroductionsDisabled(t *testing.T) {
	p := params()
	p.IntroductionsEnabled = false
	l := NewList(p)
	l.AddIntroduction(0, ids.PeerID(1), ids.PeerID(2))
	if len(l.intros) != 0 {
		t.Error("introductions recorded while disabled")
	}
}

func TestSelfIntroductionIgnored(t *testing.T) {
	l := NewList(params())
	l.AddIntroduction(0, ids.PeerID(1), ids.PeerID(1))
	if len(l.intros) != 0 {
		t.Error("self-introduction recorded")
	}
}

func TestConsiderCounters(t *testing.T) {
	l := NewList(params())
	rnd := prng.New(11)
	good := ids.PeerID(1)
	l.Raise(0, good)
	l.Consider(0, good, rnd)
	if l.AdmittedKnown != 1 {
		t.Errorf("AdmittedKnown = %d", l.AdmittedKnown)
	}
	total := 0
	for i := 0; i < 200; i++ {
		l.Consider(at(float64(i)*2), ids.PeerID(uint32(500+i)), rnd)
		total++
	}
	if l.AdmittedUnknown+l.DroppedRandom+l.RejectedRefract != uint64(total) {
		t.Errorf("counter sum mismatch: %d+%d+%d != %d",
			l.AdmittedUnknown, l.DroppedRandom, l.RejectedRefract, total)
	}
	if len(l.entries) == 0 {
		t.Error("no entries recorded")
	}
}
