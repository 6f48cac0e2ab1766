package effort

import (
	"crypto/sha256"
	"encoding/binary"
)

// Proof is a proof of computational effort attached to a protocol message.
// The simulator uses SimProof (a claimed cost plus a validity bit, charged
// against the sender's schedule); the real node uses MBFProof. Each side's
// environment verifies its own form: only MBFProof crosses the wire.
type Proof interface {
	// Cost is the effort the prover claims to have expended.
	Cost() Seconds
}

// SimProof is the simulator's symbolic proof of effort. Generating one in
// the simulator charges the claimed cost to the sender; Genuine is a
// recorded fact rather than a cryptographic check.
type SimProof struct {
	Effort  Seconds
	Genuine bool
}

// Cost implements Proof.
func (p SimProof) Cost() Seconds { return p.Effort }

// Receipt is the 160-bit unforgeable byproduct of generating a proof of
// effort. The voter remembers it when generating the vote's effort proof;
// the poller can only learn it by actually evaluating the vote, and returns
// it in the EvaluationReceipt message (§5.1, "wasteful" attacks).
type Receipt [20]byte

// simReceiptPrefix is the domain-separation tag plus the 8-byte effort field
// that precede the context in a simulated receipt's hash input.
const simReceiptPrefix = "lockss/sim-receipt"

// SimReceiptFor derives the deterministic receipt for a simulated proof
// bound to a context. Both sides of a simulated exchange can derive it,
// which models "the poller performed the necessary effort" without
// simulating the MBF bit-for-bit.
//
// The hash input is assembled in a stack buffer and digested with
// sha256.Sum256 so the hot path (one receipt per proof generated and one per
// vote evaluated) does not allocate; protocol contexts are ~24 bytes, far
// inside the buffer. The rare oversized context takes the allocating path
// with identical output bytes.
func SimReceiptFor(context []byte, effort Seconds) Receipt {
	var in [128]byte
	n := copy(in[:], simReceiptPrefix)
	binary.BigEndian.PutUint64(in[n:], uint64(float64(effort)*1e6))
	n += 8
	if len(context) <= len(in)-n {
		n += copy(in[n:], context)
		sum := sha256.Sum256(in[:n])
		return Receipt(sum[:20])
	}
	h := sha256.New()
	h.Write(in[:n])
	h.Write(context)
	var r Receipt
	copy(r[:], h.Sum(nil))
	return r
}
