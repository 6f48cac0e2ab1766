package protocol

import (
	"encoding/binary"
	"fmt"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/sched"
)

// MsgType enumerates the protocol messages of Figure 1 in the paper, plus
// the repair pair.
type MsgType uint8

const (
	// MsgPoll invites a voter into a poll, carrying the introductory effort
	// proof (anti-reservation).
	MsgPoll MsgType = iota + 1
	// MsgPollAck accepts or refuses the invitation; acceptance commits the
	// voter's schedule.
	MsgPollAck
	// MsgPollProof supplies the vote nonce and the remaining poller effort
	// proof (anti-desertion).
	MsgPollProof
	// MsgVote carries the vote body, its effort proof (anti-desertion by
	// voters) and discovery nominations.
	MsgVote
	// MsgRepairRequest asks a voter for one block's content.
	MsgRepairRequest
	// MsgRepair supplies the requested block.
	MsgRepair
	// MsgEvaluationReceipt proves the poller evaluated the vote
	// (anti-waste); its body is the MBF byproduct of the vote's effort
	// proof.
	MsgEvaluationReceipt
)

func (t MsgType) String() string {
	switch t {
	case MsgPoll:
		return "Poll"
	case MsgPollAck:
		return "PollAck"
	case MsgPollProof:
		return "PollProof"
	case MsgVote:
		return "Vote"
	case MsgRepairRequest:
		return "RepairRequest"
	case MsgRepair:
		return "Repair"
	case MsgEvaluationReceipt:
		return "EvaluationReceipt"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// RefuseReason explains a negative PollAck.
type RefuseReason uint8

const (
	// RefuseNone means the invitation was accepted.
	RefuseNone RefuseReason = iota
	// RefuseBusy means the vote could not be accommodated in the schedule.
	RefuseBusy
	// RefuseBadEffort means the introductory effort proof failed to verify.
	RefuseBadEffort
	// RefuseProtocol means the message was malformed or out of order.
	RefuseProtocol
)

func (r RefuseReason) String() string {
	switch r {
	case RefuseNone:
		return "accepted"
	case RefuseBusy:
		return "busy"
	case RefuseBadEffort:
		return "bad-effort"
	case RefuseProtocol:
		return "protocol"
	}
	return "invalid"
}

// Nonce is the poller-supplied randomness a vote is keyed by.
type Nonce [16]byte

// Msg is a protocol message. One struct covers all types; unused fields are
// zero. The wire codec (internal/wire) encodes exactly the fields relevant
// to each type, and WireSize reflects that encoding for network-timing
// purposes in the simulator.
type Msg struct {
	Type   MsgType
	AU     content.AUID
	PollID uint64
	Poller ids.PeerID
	Voter  ids.PeerID

	// Poll fields.
	VoteBy       sched.Time // deadline for vote delivery
	PollDeadline sched.Time // when the poll concludes (receipt horizon)

	// Poll / PollProof / Vote: proof of effort.
	Proof effort.Proof

	// PollAck fields.
	Accept bool
	Refuse RefuseReason

	// PollProof fields.
	Nonce Nonce

	// Vote fields.
	Vote        VoteData
	Nominations []ids.PeerID

	// Repair fields.
	Block      int32
	RepairData []byte

	// EvaluationReceipt fields.
	Receipt effort.Receipt
}

// headerBytes is the encoded size of the fields common to all messages.
const headerBytes = 1 + 4 + 8 + 4 + 4 // type, au, pollID, poller, voter

// proofWireBytes models the encoded size of an effort proof. MBF proofs
// carry their checkpoint vectors; simulated proofs are sized as a real proof
// of the same cost would be, at one checkpoint row per effort unit.
func proofWireBytes(p effort.Proof) int {
	if p == nil {
		return 1
	}
	if mp, ok := p.(*effort.MBFProof); ok {
		n := 1 + 8
		for _, cp := range mp.Checkpoints {
			n += 8 * len(cp)
		}
		return n + 20
	}
	// Simulated: 17 checkpoint words per effort unit (16 checkpoints + seed)
	// at one unit per effort-second, minimum one row.
	units := int(float64(p.Cost())) + 1
	return 1 + 8 + units*17*8 + 20
}

// WireSize returns the modeled encoded size of the message in bytes.
func (m *Msg) WireSize() int {
	n := headerBytes
	switch m.Type {
	case MsgPoll:
		n += 8 + 8 // VoteBy, PollDeadline
		n += proofWireBytes(m.Proof)
	case MsgPollAck:
		n += 1 + 1 // accept, reason
	case MsgPollProof:
		n += len(m.Nonce)
		n += proofWireBytes(m.Proof)
	case MsgVote:
		if m.Vote != nil {
			n += 4 + m.Vote.WireBytes()
		}
		n += 2 + 4*len(m.Nominations)
		n += proofWireBytes(m.Proof)
	case MsgRepairRequest:
		n += 4
	case MsgRepair:
		n += 4 + 4 + len(m.RepairData)
	case MsgEvaluationReceipt:
		n += len(m.Receipt)
	}
	return n
}

// AppendPollContext appends the canonical effort-binding context for a
// protocol phase of a poll to dst and returns the extended slice: poller,
// voter, poll and phase are all bound, so proofs cannot be replayed across
// exchanges. The hot path reuses a per-peer scratch buffer through it;
// contexts are consumed synchronously by the effort primitives and never
// retained.
func AppendPollContext(dst []byte, poller, voter ids.PeerID, au content.AUID, pollID uint64, phase string) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(poller))
	dst = append(dst, tmp[:4]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(voter))
	dst = append(dst, tmp[:4]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(au))
	dst = append(dst, tmp[:4]...)
	binary.BigEndian.PutUint64(tmp[:], pollID)
	dst = append(dst, tmp[:8]...)
	dst = append(dst, phase...)
	return dst
}
