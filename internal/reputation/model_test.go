package reputation

import (
	"testing"

	"lockss/internal/ids"
	"lockss/internal/prng"
)

// model is the known-peers list written the obvious way — one plain map per
// set, a boxed entry per peer — kept as the reference the packed List is
// compared against.
type model struct {
	params          Params
	entries         map[ids.PeerID]*modelEntry
	intros          map[ids.PeerID]ids.PeerID // introducee -> introducer
	refractoryUntil Time
	cut             uint64
}

type modelEntry struct {
	grade              Grade
	updated, lastAdmit Time
}

func (m *model) decayed(now Time, p ids.PeerID) *modelEntry {
	e := m.entries[p]
	if e == nil || m.params.Decay <= 0 {
		return e
	}
	d := Time(m.params.Decay)
	for e.grade > Debt && now-e.updated >= d {
		e.grade--
		e.updated += d
	}
	if e.grade == Debt && now-e.updated >= d {
		e.updated = now
	}
	return e
}

func (m *model) gradeOf(now Time, p ids.PeerID) Grade {
	if e := m.decayed(now, p); e != nil {
		return e.grade
	}
	return Unknown
}

func (m *model) ensure(now Time, p ids.PeerID) *modelEntry {
	e := m.decayed(now, p)
	if e == nil {
		e = &modelEntry{grade: Debt, updated: now}
		m.entries[p] = e
	}
	return e
}

func (m *model) raise(now Time, p ids.PeerID) {
	e := m.ensure(now, p)
	e.grade = min(e.grade+1, Credit)
	e.updated = now
}

func (m *model) lower(now Time, p ids.PeerID) {
	e := m.ensure(now, p)
	e.grade = max(e.grade-1, Debt)
	e.updated = now
}

func (m *model) penalize(now Time, p ids.PeerID) {
	e := m.ensure(now, p)
	e.grade, e.updated = Debt, now
}

func (m *model) addIntroduction(introducer, introducee ids.PeerID) {
	if !m.params.IntroductionsEnabled || introducer == introducee {
		return
	}
	if _, held := m.intros[introducee]; !held && len(m.intros) >= m.params.MaxIntroductions {
		m.cut++
		return
	}
	m.intros[introducee] = introducer
}

func (m *model) forgetIntroducer(p ids.PeerID) {
	for b, a := range m.intros {
		if a == p {
			delete(m.intros, b)
		}
	}
}

func (m *model) consider(now Time, p ids.PeerID, rnd *prng.Source) Decision {
	if a, held := m.intros[p]; held && m.params.IntroductionsEnabled {
		// Forget-on-use: every other introduction by a, and of p, goes too.
		delete(m.intros, p)
		m.forgetIntroducer(a)
		e := m.ensure(now, p)
		e.grade = max(e.grade, Even)
		e.lastAdmit, e.updated = now, now
		return AdmitIntroduced
	}
	g := m.gradeOf(now, p)
	if g >= Even {
		e := m.entries[p]
		if e.lastAdmit != 0 && now-e.lastAdmit < Time(m.params.Refractory) {
			return RejectRateCap
		}
		e.lastAdmit = now
		return AdmitKnown
	}
	if now < m.refractoryUntil {
		return RejectRefractory
	}
	drop := m.params.DropUnknown
	if g == Debt {
		drop = m.params.DropDebt
	}
	if rnd.Bool(drop) {
		return RejectDropped
	}
	m.refractoryUntil = now + Time(m.params.Refractory)
	return AdmitUnknown
}

// TestListMatchesMapModel drives a List and the map model through the same
// seeded operation stream — every mutator, the clock running through
// refractory periods and decay intervals — with twin random sources, and
// after every step compares each decision and every observable of every
// identity.
func TestListMatchesMapModel(t *testing.T) {
	const peers = 16 // more than the cap, few enough that every pair recurs
	var seen [AdmitIntroduced + 1]uint64
	var cut uint64
	for seed := uint64(1); seed <= 48; seed++ {
		p := DefaultParams(day, 3*day)
		p.MaxIntroductions = 5
		p.IntroductionsEnabled = seed%6 != 0
		if seed%4 == 0 {
			p.Decay = 0
		}
		l := NewList(p)
		m := &model{params: p, entries: map[ids.PeerID]*modelEntry{}, intros: map[ids.PeerID]ids.PeerID{}}
		ops, lrnd, mrnd := prng.New(seed), prng.New(seed+1000), prng.New(seed+1000)
		pick := func() ids.PeerID { return ids.PeerID(1 + ops.Intn(peers)) }
		now := at(1)
		var decisions [AdmitIntroduced + 1]uint64
		for step := 0; step < 4000; step++ {
			switch ops.Intn(9) {
			case 0:
				a := pick()
				l.Raise(now, a)
				m.raise(now, a)
			case 1:
				a := pick()
				l.Lower(now, a)
				m.lower(now, a)
			case 2:
				a := pick()
				l.Penalize(now, a)
				m.penalize(now, a)
			case 3, 4:
				a, b := pick(), pick()
				l.AddIntroduction(now, a, b)
				m.addIntroduction(a, b)
			case 5:
				a := pick()
				l.ForgetIntroducer(a)
				m.forgetIntroducer(a)
			case 6:
				a := pick()
				got, want := l.Consider(now, a, lrnd), m.consider(now, a, mrnd)
				if got != want {
					t.Fatalf("seed %d step %d: Consider(%v) = %v, model says %v", seed, step, a, got, want)
				}
				decisions[got]++
			case 7:
				now += Time(ops.Float64() * float64(day) / 4)
			case 8:
				now += Time(ops.Float64() * float64(day) * 2)
			}
			if len(l.intros) != len(m.intros) || len(l.entries) != len(m.entries) {
				t.Fatalf("seed %d step %d: %d intros, %d known; model says %d, %d",
					seed, step, len(l.intros), len(l.entries), len(m.intros), len(m.entries))
			}
			for id := ids.PeerID(1); id <= peers; id++ {
				if _, held := m.intros[id]; (l.introOf(id) >= 0) != held {
					t.Fatalf("seed %d step %d: introduction of %v held = %v, model says %v", seed, step, id, !held, held)
				}
				if got, want := l.GradeOf(now, id), m.gradeOf(now, id); got != want {
					t.Fatalf("seed %d step %d: GradeOf(%v) = %v, model says %v", seed, step, id, got, want)
				}
			}
			if l.refractoryUntil != m.refractoryUntil {
				t.Fatalf("seed %d step %d: refractory until %d, model says %d", seed, step, l.refractoryUntil, m.refractoryUntil)
			}
		}
		if lrnd.Uint64() != mrnd.Uint64() {
			t.Fatalf("seed %d: the list and the model drew different amounts of randomness", seed)
		}
		if l.IntroductionsCut != m.cut {
			t.Errorf("seed %d: %d introductions cut, model says %d", seed, l.IntroductionsCut, m.cut)
		}
		if got := [...]uint64{l.RejectedRefract, l.DroppedRandom, l.RejectedRateCap, l.AdmittedKnown, l.AdmittedUnknown, l.AdmittedIntro}; got != decisions {
			t.Errorf("seed %d: counters %v, decisions returned %v", seed, got, decisions)
		}
		for d, n := range decisions {
			seen[d] += n
		}
		cut += m.cut
	}
	for d, n := range seen {
		if n < 100 {
			t.Errorf("%v happened %d times; the streams do not exercise it", Decision(d), n)
		}
	}
	if cut < 100 {
		t.Errorf("the introduction cap was hit %d times; the streams do not exercise it", cut)
	}
}
