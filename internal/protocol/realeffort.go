package protocol

import (
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/prng"
)

// RealEffort is the part of a real peer's Env that depends on neither its
// clock nor its transport: the seeded randomness stream and proofs of effort
// computed with the memory-bound function. The networked node and the trace
// replayer both embed it, so a recorded run and its replay draw the same
// randomness and compute the same proofs by construction.
type RealEffort struct {
	mbf  *effort.MBF
	unit effort.Seconds
	rnd  *prng.Source
}

// NewRealEffort builds peer id's effort environment. seed is the operator's
// seed (node.Config.Seed, trace.Header.Seed); the peer's stream is derived
// from it and the identity, so peers sharing a seed still draw independently.
// unit is the effort-seconds one MBF walk stands for.
func NewRealEffort(id ids.PeerID, seed uint64, p effort.MBFParams, unit effort.Seconds) RealEffort {
	return RealEffort{
		mbf:  effort.NewMBF(p),
		unit: unit,
		rnd:  prng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
	}
}

// Rand implements Env.
func (e *RealEffort) Rand() *prng.Source { return e.rnd }

// units scales a requested effort cost to MBF walk units, 1 to
// effort.MaxProofUnits.
func (e *RealEffort) units(cost effort.Seconds) int {
	return min(max(int(float64(cost)/float64(e.unit))+1, 1), effort.MaxProofUnits)
}

// MakeProof implements Env with a real MBF computation.
func (e *RealEffort) MakeProof(ctx []byte, cost effort.Seconds, receipt *effort.Receipt) effort.Proof {
	p, r := e.mbf.Generate(ctx, e.units(cost), e.unit)
	p.UnitCost = effort.Seconds(float64(cost) / float64(p.Units))
	if receipt != nil {
		*receipt = r
	}
	return p
}

// VerifyProof implements Env: spot-check verification. A proof is worth its
// walks at this peer's own effort unit; the UnitCost the prover claims is
// ignored, or one walk could claim any price.
func (e *RealEffort) VerifyProof(ctx []byte, p effort.Proof, minCost effort.Seconds) bool {
	mp, ok := p.(*effort.MBFProof)
	if !ok || mp == nil {
		return false
	}
	return float64(mp.Units)*float64(e.unit) >= float64(minCost)-1e-9 && e.mbf.Verify(mp, ctx)
}

// EvalReceipt implements Env: the full walk recovers the receipt byproduct.
func (e *RealEffort) EvalReceipt(ctx []byte, p effort.Proof) (effort.Receipt, bool) {
	mp, ok := p.(*effort.MBFProof)
	if !ok || mp == nil {
		return effort.Receipt{}, false
	}
	return e.mbf.RecomputeByproduct(mp, ctx)
}
