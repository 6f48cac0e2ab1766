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
	introducer ids.PeerID
	added      Time
}

// List is the known-peers list for one AU at one peer. Not safe for
// concurrent use, except through the Gate it may publish.
type List struct {
	params  Params
	entries map[ids.PeerID]*entry
	// refractoryUntil guards the unknown/in-debt admission slot.
	refractoryUntil Time
	// intros maps introducee -> pending introduction.
	intros map[ids.PeerID]intro

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
		if l.decayed(now, p).grade >= Even {
			ps = append(ps, p)
		}
	}
	for p := range l.intros {
		ps = append(ps, p)
	}
	slices.Sort(ps) // an introduced even-grade peer appears twice, harmlessly
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
	return &List{
		params:  p,
		entries: make(map[ids.PeerID]*entry),
		intros:  make(map[ids.PeerID]intro),
	}
}

// decayed applies grade decay lazily and returns the effective entry, or nil
// for unknown peers.
func (l *List) decayed(now Time, p ids.PeerID) *entry {
	e, ok := l.entries[p]
	if !ok {
		return nil
	}
	if l.params.Decay > 0 {
		for e.grade > Debt && now-e.updated >= Time(l.params.Decay) {
			e.grade--
			e.updated += Time(l.params.Decay)
		}
		if e.grade == Debt && now-e.updated >= Time(l.params.Decay) {
			e.updated = now
		}
	}
	return e
}

// GradeOf returns the peer's current grade, applying decay.
func (l *List) GradeOf(now Time, p ids.PeerID) Grade {
	if e := l.decayed(now, p); e != nil {
		return e.grade
	}
	return Unknown
}

// ensure returns the entry for p, creating a debt-grade entry if absent.
func (l *List) ensure(now Time, p ids.PeerID) *entry {
	if e := l.decayed(now, p); e != nil {
		return e
	}
	e := &entry{grade: Debt, updated: now}
	l.entries[p] = e
	return e
}

// Raise moves the peer's grade one step up (they supplied us a valid vote
// and any requested repairs): debt->even->credit->credit.
func (l *List) Raise(now Time, p ids.PeerID) {
	e := l.ensure(now, p)
	if e.grade < Credit {
		e.grade++
	}
	e.updated = now
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
}

// Penalize drops the peer straight to debt (they misbehaved: deserted a
// commitment, sent an invalid proof, withheld a receipt or repair).
func (l *List) Penalize(now Time, p ids.PeerID) {
	e := l.ensure(now, p)
	e.grade = Debt
	e.updated = now
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
		if in, ok := l.intros[p]; ok {
			l.consumeIntroduction(p, in.introducer)
			// Treated as a known peer with an even grade.
			e := l.ensure(now, p)
			if e.grade < Even {
				e.grade = Even
			}
			e.lastAdmit = now
			e.updated = now
			l.AdmittedIntro++
			return AdmitIntroduced
		}
	}
	g := l.GradeOf(now, p)
	if g == Even || g == Credit {
		e := l.ensure(now, p)
		if e.lastAdmit != 0 && now-e.lastAdmit < Time(l.params.Refractory) {
			l.RejectedRateCap++
			return RejectRateCap
		}
		e.lastAdmit = now
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

// RefractoryUntil returns when the current refractory period lapses.
func (l *List) RefractoryUntil() Time { return l.refractoryUntil }

// AddIntroduction records that introducer vouches for introducee. The
// introduction is dropped silently if the cap is reached or introductions
// are disabled. Re-introduction refreshes the introducer.
func (l *List) AddIntroduction(now Time, introducer, introducee ids.PeerID) {
	if !l.params.IntroductionsEnabled || introducer == introducee {
		return
	}
	_, exists := l.intros[introducee]
	if !exists && len(l.intros) >= l.params.MaxIntroductions {
		l.IntroductionsCut++
		return
	}
	l.intros[introducee] = intro{introducer: introducer, added: now}
	if !exists && l.gate != nil {
		l.publish(now)
	}
}

// consumeIntroduction implements the paper's forget-on-use semantics: using
// B's introduction by A forgets all other introductions by A and all other
// introductions of B.
func (l *List) consumeIntroduction(introducee, introducer ids.PeerID) {
	delete(l.intros, introducee)
	for b, in := range l.intros {
		if in.introducer == introducer || b == introducee {
			delete(l.intros, b)
		}
	}
}

// ForgetIntroducer removes all introductions by a peer that has left the
// reference list.
func (l *List) ForgetIntroducer(p ids.PeerID) {
	for b, in := range l.intros {
		if in.introducer == p {
			delete(l.intros, b)
		}
	}
}

// PendingIntroductions returns the number of outstanding introductions.
func (l *List) PendingIntroductions() int { return len(l.intros) }

// HasIntroduction reports whether p holds an unconsumed introduction.
func (l *List) HasIntroduction(p ids.PeerID) bool {
	_, ok := l.intros[p]
	return ok
}

// Known returns the number of known-peers entries.
func (l *List) Known() int { return len(l.entries) }
