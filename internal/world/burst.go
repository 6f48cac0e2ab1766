package world

import (
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
)

// BurstPayload models an adversary's stream of back-to-back poll
// invitations from distinct identities as a single network event, for
// simulation efficiency. The victim processes each invitation individually
// through its normal admission control path (random drops, refractory
// period, effort verification), exactly as if the messages had arrived one
// by one; the stream stops as soon as one invitation is admitted — the
// adversary, with total information awareness, observes the admission
// instantly and stops wasting effort.
//
// ProofCost, with a Proof, is charged to the attacker's ledger for every
// invitation actually emitted (the effortful brute-force adversary pays an
// introductory effort per attempt; the effortless admission-control flooder
// pays nothing).
type BurstPayload struct {
	// First is the identity of the first invitation; successive invitations
	// use consecutive identities when FreshIdentities is set, or identities
	// from the Pool otherwise.
	First ids.PeerID
	// Pool, when non-nil, supplies the rotating identity pool (brute-force
	// in-debt identities).
	Pool []ids.PeerID
	// Count bounds the number of invitations in the stream.
	Count int
	// Template is the invitation; Poller is overridden per copy.
	Template protocol.Msg
	// Proof, when non-nil, is attached to every invitation, and ProofCost
	// is charged to Ledger per invitation emitted. The proofs are symbolic:
	// a SimProof's validity does not depend on the context it is bound to,
	// so one value serves the whole stream.
	Proof     effort.Proof
	ProofCost effort.Seconds
	// Ledger receives the attacker's per-invitation costs.
	Ledger *effort.Ledger
	// Sent, if non-nil, receives the number of invitations emitted.
	Sent func(n int)
}

// Deliver expands the burst at the victim. It stops early once an
// invitation is admitted (observed via the refractory clock or a created
// session), mirroring an attacker who sends until admitted.
func (b *BurstPayload) Deliver(w *World, victim *protocol.Peer) {
	au := b.Template.AU
	rep := victim.Reputation(au)
	if rep == nil {
		return
	}
	now := w.Engine.Now()
	emitted := 0
	// One shared copy of the template serves the whole stream: the Poll
	// handler reads the message synchronously and never retains it, so only
	// the per-invitation fields are rewritten between deliveries.
	m := b.Template
	m.Voter = victim.ID()
	m.Proof = b.Proof
	for i := 0; i < b.Count; i++ {
		// An admitted unknown/in-debt invitation puts the victim in its
		// refractory period; the attacker stops a stream that has achieved
		// its admission.
		if i > 0 && rep.InRefractory(now) {
			break
		}
		var from ids.PeerID
		if len(b.Pool) > 0 {
			from = b.Pool[i%len(b.Pool)]
		} else {
			from = b.First + ids.PeerID(i)
		}
		m.Poller = from
		if b.Proof != nil && b.Ledger != nil {
			b.Ledger.Charge(effort.KindAttackIntro, b.ProofCost)
		}
		emitted++
		victim.Receive(from, &m)
	}
	if b.Sent != nil {
		b.Sent(emitted)
	}
}

// BurstWireSize models the transfer size of a burst: the template size times
// the expected emission count is dominated by per-invitation payloads; we
// charge the full worst case, which only makes the attacker's network
// footprint look larger, never smaller.
func (b *BurstPayload) BurstWireSize() int {
	return b.Template.WireSize() * b.Count
}

// NewBurst returns a pooled copy of b for Net.Send. Like NewMsg's records,
// it returns to the pool once the network has delivered or dropped it.
func (w *World) NewBurst(b *BurstPayload) *BurstPayload {
	var r *BurstPayload
	if k := len(w.freeBursts); k > 0 {
		r = w.freeBursts[k-1]
		w.freeBursts = w.freeBursts[:k-1]
	} else {
		r = new(BurstPayload)
	}
	*r = *b
	return r
}
