package telemetry

import (
	"sort"
	"sync/atomic"
)

// EventKind tags one flight-recorder event.
type EventKind uint8

const (
	// EvPollStart: a poller opened a poll on an AU.
	EvPollStart EventKind = iota
	// EvSolicit: the poller sent (or re-sent) a vote invitation.
	EvSolicit
	// EvVoteIn: the poller accepted a valid vote.
	EvVoteIn
	// EvVoteOut: this node, as a voter, supplied a vote to another poller.
	EvVoteOut
	// EvTally: the poller began evaluating the collected votes.
	EvTally
	// EvRepairReq: the poller asked a voter for a repair block.
	EvRepairReq
	// EvRepair: a repair block was applied to the local replica.
	EvRepair
	// EvConclude: the poll concluded (Other carries the Outcome).
	EvConclude
	// EvAlarm: an inconclusive poll raised the operator alarm.
	EvAlarm
	// EvDamage: the scrubber marked a local block damaged.
	EvDamage
)

func (k EventKind) String() string {
	switch k {
	case EvPollStart:
		return "poll-start"
	case EvSolicit:
		return "solicit"
	case EvVoteIn:
		return "vote-in"
	case EvVoteOut:
		return "vote-out"
	case EvTally:
		return "tally"
	case EvRepairReq:
		return "repair-req"
	case EvRepair:
		return "repair"
	case EvConclude:
		return "conclude"
	case EvAlarm:
		return "alarm"
	case EvDamage:
		return "damage"
	}
	return "unknown"
}

// Event is one flight-recorder entry. Peer is the acting peer, Other the
// counterpart (voter for solicit/vote-in/repair-req, poller for vote-out;
// zero when there is none). Outcome is protocol.Outcome for EvConclude.
type Event struct {
	Seq     uint64 `json:"seq"`
	T       int64  `json:"t_ns"`
	Kind    string `json:"kind"`
	Peer    uint32 `json:"peer"`
	Other   uint32 `json:"other,omitempty"`
	AU      uint32 `json:"au"`
	PollID  uint64 `json:"poll_id,omitempty"`
	Block   int32  `json:"block,omitempty"`
	Outcome uint8  `json:"outcome,omitempty"`
}

// ringSlot packs one event into atomic words so a reader can race writers
// without locks or torn reads flagged by the race detector. ver is a
// seqlock: odd = write in progress, (idx+1)<<1 = slot holds write index idx.
type ringSlot struct {
	ver     atomic.Uint64
	t       atomic.Int64
	poll    atomic.Uint64
	peers   atomic.Uint64 // peer<<32 | other
	auBlock atomic.Uint64 // au<<32 | uint32(block)
	ko      atomic.Uint64 // kind<<8 | outcome
}

// Ring is the flight recorder: a fixed-size, allocation-free ring of Events.
// Appends are wait-free with respect to readers; Snapshot never blocks a
// writer (a concurrently overwritten slot is simply dropped from the
// snapshot). Two writers landing on the same slot in one wrap-around could
// in principle interleave, but at the default size that requires one writer
// to stall for a full ring worth of events.
type Ring struct {
	slots []ringSlot
	mask  uint64
	next  atomic.Uint64
}

// NewRing returns a ring holding the last `size` events (rounded up to a
// power of two, minimum 16).
func NewRing(size int) *Ring {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]ringSlot, n), mask: uint64(n - 1)}
}

// Append records one event, overwriting the oldest when full.
func (r *Ring) Append(kind EventKind, t int64, peer, other, au uint32, pollID uint64, block int32, outcome uint8) {
	idx := r.next.Add(1) - 1
	s := &r.slots[idx&r.mask]
	s.ver.Store(idx<<1 | 1)
	s.t.Store(t)
	s.poll.Store(pollID)
	s.peers.Store(uint64(peer)<<32 | uint64(other))
	s.auBlock.Store(uint64(au)<<32 | uint64(uint32(block)))
	s.ko.Store(uint64(kind)<<8 | uint64(outcome))
	s.ver.Store((idx + 1) << 1)
}

// Snapshot returns the ring's current contents, oldest first. Slots being
// overwritten while the snapshot runs are skipped; everything else is a
// consistent event.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		v1 := s.ver.Load()
		if v1 == 0 || v1&1 == 1 {
			continue // never written, or mid-write
		}
		t := s.t.Load()
		poll := s.poll.Load()
		peers := s.peers.Load()
		auBlock := s.auBlock.Load()
		ko := s.ko.Load()
		if s.ver.Load() != v1 {
			continue // overwritten while copying
		}
		k := EventKind(ko >> 8)
		out = append(out, Event{
			Seq:     v1>>1 - 1,
			T:       t,
			Kind:    k.String(),
			Peer:    uint32(peers >> 32),
			Other:   uint32(peers),
			AU:      uint32(auBlock >> 32),
			PollID:  poll,
			Block:   int32(uint32(auBlock)),
			Outcome: uint8(ko),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
