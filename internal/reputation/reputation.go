// Package reputation implements the first-hand reputation half of the
// LOCKSS admission control defense (§5.1 of the paper):
//
//   - A per-(peer, AU) known-peers list holding a grade — debt, even or
//     credit — for every encountered identity, tracking the exchange of
//     votes. Grades decay toward debt with time.
//   - Random drops of poll invitations from unknown identities (probability
//     0.90 by default) and from in-debt identities (0.80), making identity
//     whitewashing strictly worse than staying in debt.
//   - A refractory period: after admitting one invitation from an unknown or
//     in-debt poller, all further such invitations are auto-rejected until
//     the period lapses. Per refractory period a voter also admits at most
//     one invitation from each even/credit peer, bounding its total
//     "liability" to a small constant per period.
//   - Peer introductions: an introduced poller bypasses drops and the
//     refractory period once, and is treated as a known peer with an even
//     grade. Consuming B's introduction by A forgets A's other introductions
//     and B's introductions by others; unused introductions do not
//     accumulate beyond a cap.
package reputation

import (
	"slices"
	"sync/atomic"
	"time"

	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/sched"
)

// Grade is a peer's first-hand reputation grade.
type Grade uint8

const (
	// Unknown means the peer has never been encountered (no entry).
	Unknown Grade = iota
	// Debt means the peer has supplied fewer votes than it received.
	Debt
	// Even means recent vote exchanges balance.
	Even
	// Credit means the peer has supplied more votes than it received.
	Credit
)

func (g Grade) String() string {
	switch g {
	case Unknown:
		return "unknown"
	case Debt:
		return "debt"
	case Even:
		return "even"
	case Credit:
		return "credit"
	}
	return "invalid"
}

// Time and Duration are the protocol's clock types (see sched.Time).
type Time = sched.Time
type Duration = time.Duration

// Params configures the admission policy. Defaults follow §6.3 of the paper.
type Params struct {
	// DropUnknown is the probability of dropping an invitation from an
	// unknown identity (paper: 0.90).
	DropUnknown float64
	// DropDebt is the probability of dropping an invitation from an in-debt
	// identity (paper: 0.80). It must be below DropUnknown to discourage
	// whitewashing.
	DropDebt float64
	// Refractory is the period after admitting an unknown/in-debt
	// invitation during which all such invitations are auto-rejected
	// (paper: 1 day).
	Refractory Duration
	// Decay is the interval after which an entry's grade drops one step
	// toward debt absent interactions.
	Decay Duration
	// MaxIntroductions caps outstanding introductions per AU.
	MaxIntroductions int
	// IntroductionsEnabled allows disabling introductions for ablation.
	IntroductionsEnabled bool
}

// DefaultParams returns the paper's operating point.
func DefaultParams(refractory, decay Duration) Params {
	return Params{
		DropUnknown:          0.90,
		DropDebt:             0.80,
		Refractory:           refractory,
		Decay:                decay,
		MaxIntroductions:     40,
		IntroductionsEnabled: true,
	}
}

type entry struct {
	grade   Grade
	updated Time
	// lastAdmit is when this (even/credit) peer's invitation was last
	// admitted, enforcing the one-per-refractory-period cap.
	lastAdmit Time
}

type intro struct {
	introducee, introducer ids.PeerID
}

// List is the known-peers list for one AU at one peer. Not safe for
// concurrent use, except through the Gate it may publish.
type List struct {
	params Params
	// entries is the one set here whose size an adversary controls (every
	// identity it is penalized under gets one), so it is a map; values are
	// stored inline and every mutator writes its copy back.
	entries map[ids.PeerID]entry
	// refractoryUntil guards the unknown/in-debt admission slot.
	refractoryUntil Time
	// intros holds the pending introductions, at most one per introducee and
	// at most MaxIntroductions in all, in no observable order.
	intros []intro

	// Counters for metrics and tests.
	AdmittedKnown    uint64
	AdmittedUnknown  uint64
	AdmittedIntro    uint64
	DroppedRandom    uint64
	RejectedRefract  uint64
	RejectedRateCap  uint64
	IntroductionsCut uint64

	// gate, when opened, is republished whenever an identity gains
	// privilege or the unknown/in-debt slot closes.
	gate *Gate
}

// Gate is the two facts Consider's RejectRefractory outcome depends on — is
// the unknown/in-debt slot closed, is the sender even/credit or introduced —
// published by a List for goroutines other than its owner, so that a network
// reader can discard most of a flood before decoding it. It errs one way
// only: it may lag behind the List in passing a sender Consider would now
// reject, never in shedding one Consider would have let past the refractory
// rule. Consider stays authoritative for everything the gate passes.
type Gate struct {
	refractoryUntil atomic.Int64
	// privileged is sorted and immutable once stored.
	privileged atomic.Pointer[[]ids.PeerID]
}

// Sheds reports whether an invitation claiming to come from p at now is
// certain to end as RejectRefractory. Safe for concurrent use; allocates
// nothing.
func (g *Gate) Sheds(now Time, p ids.PeerID) bool {
	if now >= Time(g.refractoryUntil.Load()) {
		return false
	}
	_, privileged := slices.BinarySearch(*g.privileged.Load(), p)
	return !privileged
}

// OpenGate starts publishing the list's Gate and returns it. Lists without
// one (every simulated peer) pay a nil check where a republish would go.
func (l *List) OpenGate(now Time) *Gate {
	if l.gate == nil {
		l.gate = &Gate{}
		l.publish(now)
	}
	return l.gate
}

// publish rebuilds the gate from the list. Between republishes the
// privileged set only goes stale by keeping identities whose grade has since
// decayed or been lowered, which is the safe direction.
func (l *List) publish(now Time) {
	ps := make([]ids.PeerID, 0, len(l.entries))
	for p := range l.entries {
		if l.GradeOf(now, p) >= Even {
			ps = append(ps, p)
		}
	}
	for _, in := range l.intros {
		ps = append(ps, in.introducee)
	}
	// The sort is for the map's order; an introduced even-grade peer appears
	// twice, harmlessly.
	slices.Sort(ps)
	// The set goes first: a reader that sees the slot closed then sees a set
	// at least as new.
	l.gate.privileged.Store(&ps)
	l.gate.refractoryUntil.Store(int64(l.refractoryUntil))
}

// NewList returns an empty known-peers list.
func NewList(p Params) *List {
	if p.DropUnknown < p.DropDebt {
		// The policy requires unknown to fare worse than debt; normalize to
		// keep whitewashing unattractive even with odd configurations.
		p.DropUnknown = p.DropDebt
	}
	return &List{params: p, entries: make(map[ids.PeerID]entry)}
}

// decayed returns p's entry with grade decay applied up to now, storing it
// back when decay moved it; ok is false for unknown peers.
func (l *List) decayed(now Time, p ids.PeerID) (e entry, ok bool) {
	e, ok = l.entries[p]
	decay := Time(l.params.Decay)
	if !ok || decay <= 0 || now-e.updated < decay {
		return e, ok
	}
	for e.grade > Debt && now-e.updated >= decay {
		e.grade--
		e.updated += decay
	}
	if e.grade == Debt && now-e.updated >= decay {
		e.updated = now
	}
	l.entries[p] = e
	return e, true
}

// GradeOf returns the peer's current grade, applying decay.
func (l *List) GradeOf(now Time, p ids.PeerID) Grade {
	e, _ := l.decayed(now, p)
	return e.grade // the zero entry's grade is Unknown
}

// ensure returns p's decayed entry, or a fresh debt-grade one for a peer not
// yet known. The caller stores what it makes of it.
func (l *List) ensure(now Time, p ids.PeerID) entry {
	if e, ok := l.decayed(now, p); ok {
		return e
	}
	return entry{grade: Debt, updated: now}
}

// Raise moves the peer's grade one step up (they supplied us a valid vote
// and any requested repairs): debt->even->credit->credit.
func (l *List) Raise(now Time, p ids.PeerID) {
	e := l.ensure(now, p)
	if e.grade < Credit {
		e.grade++
	}
	e.updated = now
	l.entries[p] = e
	if e.grade == Even && l.gate != nil { // just out of debt
		l.publish(now)
	}
}

// Lower moves the peer's grade one step down (we supplied them a vote):
// credit->even->debt->debt.
func (l *List) Lower(now Time, p ids.PeerID) {
	e := l.ensure(now, p)
	if e.grade > Debt {
		e.grade--
	}
	e.updated = now
	l.entries[p] = e
}

// Penalize drops the peer straight to debt (they misbehaved: deserted a
// commitment, sent an invalid proof, withheld a receipt or repair).
func (l *List) Penalize(now Time, p ids.PeerID) {
	e := l.ensure(now, p)
	e.grade = Debt
	e.updated = now
	l.entries[p] = e
}

// Decision is the outcome of admission control for a poll invitation.
type Decision uint8

const (
	// RejectRefractory: auto-rejected during the refractory period. Costs
	// the victim essentially nothing.
	RejectRefractory Decision = iota
	// RejectDropped: randomly dropped. Costs the victim essentially nothing.
	RejectDropped
	// RejectRateCap: an even/credit peer exceeded one invitation per
	// refractory period.
	RejectRateCap
	// AdmitKnown: admitted on the strength of an even/credit grade.
	AdmitKnown
	// AdmitUnknown: the one unknown/in-debt admission of this refractory
	// period; admitting it starts a new refractory period.
	AdmitUnknown
	// AdmitIntroduced: admitted by consuming an introduction.
	AdmitIntroduced
)

// Admitted reports whether the decision lets the invitation through to
// consideration (session setup, effort verification, schedule check).
func (d Decision) Admitted() bool { return d >= AdmitKnown }

func (d Decision) String() string {
	switch d {
	case RejectRefractory:
		return "reject-refractory"
	case RejectDropped:
		return "reject-dropped"
	case RejectRateCap:
		return "reject-ratecap"
	case AdmitKnown:
		return "admit-known"
	case AdmitUnknown:
		return "admit-unknown"
	case AdmitIntroduced:
		return "admit-introduced"
	}
	return "invalid"
}

// Consider runs the admission control policy for a poll invitation from p.
// It mutates refractory and introduction state according to the decision.
func (l *List) Consider(now Time, p ids.PeerID, rnd *prng.Source) Decision {
	// Introductions bypass drops and refractory periods.
	if l.params.IntroductionsEnabled {
		if i := l.introOf(p); i >= 0 {
			l.consumeIntroduction(p, l.intros[i].introducer)
			// Treated as a known peer with an even grade.
			e := l.ensure(now, p)
			if e.grade < Even {
				e.grade = Even
			}
			e.lastAdmit = now
			e.updated = now
			l.entries[p] = e
			l.AdmittedIntro++
			return AdmitIntroduced
		}
	}
	e, _ := l.decayed(now, p)
	g := e.grade
	if g == Even || g == Credit {
		if e.lastAdmit != 0 && now-e.lastAdmit < Time(l.params.Refractory) {
			l.RejectedRateCap++
			return RejectRateCap
		}
		e.lastAdmit = now
		l.entries[p] = e
		l.AdmittedKnown++
		return AdmitKnown
	}
	// Unknown or in-debt.
	if now < l.refractoryUntil {
		l.RejectedRefract++
		return RejectRefractory
	}
	drop := l.params.DropUnknown
	if g == Debt {
		drop = l.params.DropDebt
	}
	if rnd.Bool(drop) {
		l.DroppedRandom++
		return RejectDropped
	}
	l.refractoryUntil = now + Time(l.params.Refractory)
	if l.gate != nil {
		l.publish(now)
	}
	l.AdmittedUnknown++
	return AdmitUnknown
}

// InRefractory reports whether the unknown/in-debt slot is closed at now.
func (l *List) InRefractory(now Time) bool { return now < l.refractoryUntil }

// AddIntroduction records that introducer vouches for introducee. The
// introduction is dropped silently if the cap is reached or introductions
// are disabled. Re-introduction refreshes the introducer.
func (l *List) AddIntroduction(now Time, introducer, introducee ids.PeerID) {
	if !l.params.IntroductionsEnabled || introducer == introducee {
		return
	}
	if i := l.introOf(introducee); i >= 0 {
		l.intros[i].introducer = introducer
		return
	}
	if len(l.intros) >= l.params.MaxIntroductions {
		l.IntroductionsCut++
		return
	}
	if l.intros == nil { // sized once to the cap, so it never regrows
		l.intros = make([]intro, 0, l.params.MaxIntroductions)
	}
	l.intros = append(l.intros, intro{introducee, introducer})
	if l.gate != nil {
		l.publish(now)
	}
}

// introOf returns the index of p's pending introduction, or -1.
func (l *List) introOf(p ids.PeerID) int {
	return slices.IndexFunc(l.intros, func(in intro) bool { return in.introducee == p })
}

// consumeIntroduction implements the paper's forget-on-use semantics: using
// B's introduction by A forgets all other introductions by A and all other
// introductions of B.
func (l *List) consumeIntroduction(introducee, introducer ids.PeerID) {
	l.intros = slices.DeleteFunc(l.intros, func(in intro) bool {
		return in.introducer == introducer || in.introducee == introducee
	})
}

// ForgetIntroducer removes all introductions by a peer that has left the
// reference list.
func (l *List) ForgetIntroducer(p ids.PeerID) {
	l.intros = slices.DeleteFunc(l.intros, func(in intro) bool { return in.introducer == p })
}
