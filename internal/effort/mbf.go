package effort

import (
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
)

// MBF implements a simplified memory-bound function in the spirit of
// Dwork, Goldberg and Naor (CRYPTO 2003), as adapted by the LOCKSS protocol:
//
//   - The prover performs a long pseudo-random walk through a large table of
//     incompressible data; each step's address depends on the previous
//     fetch, so the walk is latency-bound on the memory system rather than
//     the CPU, narrowing the performance spread between machines.
//   - The verifier re-walks only a sampled subset of checkpointed segments,
//     making verification a configurable fraction of generation cost.
//   - Generation yields a 160-bit byproduct (the running digest of the walk)
//     that cannot be obtained without doing the walk; the protocol uses it
//     as the evaluation receipt.
//
// This is NOT a hardened implementation — it exists so the real node and the
// integration tests exercise true generate/verify asymmetry and receipt
// semantics end to end with stdlib crypto only.
type MBF struct {
	table []uint64
	// Steps is the walk length for a unit of effort.
	Steps int
	// Checkpoints is how many evenly spaced walk states a proof records.
	Checkpoints int
	// VerifySegments is how many segments the verifier re-walks.
	VerifySegments int
}

// MBFParams configures an MBF instance.
type MBFParams struct {
	// TableWords is the size of the incompressible table in 8-byte words.
	// Real deployments size this beyond L2 cache; tests use small tables.
	TableWords int
	// Steps per unit effort.
	Steps int
	// Checkpoints recorded per proof.
	Checkpoints int
	// VerifySegments re-walked per verification.
	VerifySegments int
	// Seed determines the table contents. All parties must share it.
	Seed uint64
}

// DefaultMBFParams returns parameters sized for tests and examples: a table
// that exceeds typical L1 cache with a walk long enough to measure, small
// enough to keep test suites fast.
func DefaultMBFParams() MBFParams {
	return MBFParams{
		TableWords:     1 << 16, // 512 KiB
		Steps:          1 << 14,
		Checkpoints:    16,
		VerifySegments: 2,
		Seed:           0x10c55,
	}
}

// DemoMBFParams returns the demo-scale proof parameters every loopback
// cluster of real nodes shares (cluster tests, the cross-validation harness,
// the fleet): the real memory-bound function, sized so a hundred provers fit
// on one machine.
func DemoMBFParams() MBFParams {
	return MBFParams{TableWords: 1 << 12, Steps: 1 << 10, Checkpoints: 8, VerifySegments: 2, Seed: 7}
}

// DemoEffortUnit is the effort-seconds one MBF walk stands for when a real
// node scales proof sizes to requested costs at demo scale.
const DemoEffortUnit Seconds = 0.05

// NewMBF builds the shared table deterministically from params.Seed.
func NewMBF(p MBFParams) *MBF {
	if p.TableWords <= 0 || p.Steps <= 0 || p.Checkpoints <= 0 || p.VerifySegments <= 0 {
		panic("effort: invalid MBF params")
	}
	if p.Checkpoints > p.Steps {
		p.Checkpoints = p.Steps
	}
	if p.VerifySegments > p.Checkpoints {
		p.VerifySegments = p.Checkpoints
	}
	t := make([]uint64, p.TableWords)
	state := p.Seed | 1
	for i := range t {
		// splitmix64 fill: incompressible enough for our purposes.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return &MBF{
		table:          t,
		Steps:          p.Steps,
		Checkpoints:    p.Checkpoints,
		VerifySegments: p.VerifySegments,
	}
}

// MaxProofUnits bounds the walks in one proof: a prover never generates
// more, and the wire refuses to decode more.
const MaxProofUnits = 1 << 16

// MBFProof carries the walk checkpoints and the final digest. The byproduct
// receipt is NOT part of the proof — the prover keeps it secret; whoever
// verifies the full walk (or, in the protocol, evaluates the vote generated
// alongside it) recomputes it.
type MBFProof struct {
	// Units is the number of effort units (walks) the proof claims.
	Units int
	// Checkpoints holds the walk state at evenly spaced points, per unit.
	Checkpoints [][]uint64
	// Digest is the SHA-1 digest over all walk outputs; it doubles as the
	// receipt byproduct for the prover.
	Digest Receipt
	// UnitCost is the effort-seconds one walk represents, as the prover
	// claims it. A real verifier ignores it and prices walks at its own unit.
	UnitCost Seconds
}

// Cost implements Proof.
func (p *MBFProof) Cost() Seconds { return Seconds(float64(p.Units) * float64(p.UnitCost)) }

// walkFrom advances the walk from state through n steps, mixing context, and
// returns the final state. The address of each fetch depends on the previous
// fetch, defeating prefetch and making the walk memory-latency-bound.
func (m *MBF) walkFrom(state uint64, steps int, ctxMix uint64) uint64 {
	mask := uint64(len(m.table) - 1)
	if len(m.table)&(len(m.table)-1) != 0 {
		// Non-power-of-two tables use modulo; slower but correct.
		for i := 0; i < steps; i++ {
			state = state*0x2545f4914f6cdd1d + ctxMix
			state ^= m.table[state%uint64(len(m.table))]
		}
		return state
	}
	for i := 0; i < steps; i++ {
		state = state*0x2545f4914f6cdd1d + ctxMix
		state ^= m.table[state&mask]
	}
	return state
}

func ctxSeed(context []byte, unit int) (uint64, uint64) {
	h := sha256.Sum256(append(append([]byte("lockss/mbf"), context...), byte(unit), byte(unit>>8)))
	return binary.BigEndian.Uint64(h[0:8]) | 1, binary.BigEndian.Uint64(h[8:16]) | 1
}

// Generate performs `units` walks bound to context and returns the proof
// together with the secret receipt byproduct.
func (m *MBF) Generate(context []byte, units int, unitCost Seconds) (*MBFProof, Receipt) {
	if units <= 0 {
		units = 1
	}
	digest := sha1.New()
	digest.Write([]byte("lockss/mbf-byproduct"))
	digest.Write(context)
	cps := make([][]uint64, units)
	segSteps := m.Steps / m.Checkpoints
	for u := 0; u < units; u++ {
		start, mix := ctxSeed(context, u)
		state := start
		cp := make([]uint64, m.Checkpoints+1)
		cp[0] = state
		for c := 0; c < m.Checkpoints; c++ {
			steps := segSteps
			if c == m.Checkpoints-1 {
				steps = m.Steps - segSteps*(m.Checkpoints-1)
			}
			state = m.walkFrom(state, steps, mix)
			cp[c+1] = state
		}
		cps[u] = cp
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], state)
		digest.Write(buf[:])
	}
	var r Receipt
	copy(r[:], digest.Sum(nil))
	p := &MBFProof{Units: units, Checkpoints: cps, UnitCost: unitCost}
	// The transmitted digest is an HMAC-style commitment to the byproduct,
	// so the verifier can check consistency without learning the receipt.
	p.Digest = commitReceipt(r, context)
	return p, r
}

// commitReceipt hides the byproduct while committing to it.
func commitReceipt(r Receipt, context []byte) Receipt {
	mac := hmac.New(sha1.New, []byte("lockss/receipt-commit"))
	mac.Write(context)
	mac.Write(r[:])
	var out Receipt
	copy(out[:], mac.Sum(nil))
	return out
}

// Verify re-walks VerifySegments randomly-chosen (deterministically from the
// context) segments per unit and checks them against the checkpoints. A
// prover that skipped part of the walk is caught with probability
// 1-((k-v)/k)^cheated.
func (m *MBF) Verify(p *MBFProof, context []byte) bool {
	if p.Units <= 0 || len(p.Checkpoints) != p.Units {
		return false
	}
	segSteps := m.Steps / m.Checkpoints
	for u := 0; u < p.Units; u++ {
		cp := p.Checkpoints[u]
		if len(cp) != m.Checkpoints+1 {
			return false
		}
		start, mix := ctxSeed(context, u)
		if cp[0] != start {
			return false
		}
		// Deterministic segment choice derived from context and the final
		// state, so the prover cannot predict which segments are checked
		// before finishing the walk.
		h := sha256.Sum256(append(append([]byte("lockss/mbf-verify"), context...), byte(u)))
		pick := binary.BigEndian.Uint64(h[:8]) ^ cp[m.Checkpoints]
		for s := 0; s < m.VerifySegments; s++ {
			seg := int((pick + uint64(s)*0x9e3779b97f4a7c15) % uint64(m.Checkpoints))
			steps := segSteps
			if seg == m.Checkpoints-1 {
				steps = m.Steps - segSteps*(m.Checkpoints-1)
			}
			if m.walkFrom(cp[seg], steps, mix) != cp[seg+1] {
				return false
			}
		}
	}
	return true
}

// ReceiptMatches lets a voter check that the evaluation receipt presented by
// a poller matches the byproduct the voter remembered, via the commitment in
// the proof it originally sent.
func ReceiptMatches(remembered Receipt, presented Receipt) bool {
	return hmac.Equal(remembered[:], presented[:])
}

// RecomputeByproduct performs the full walk (full generation cost!) to learn
// the byproduct of a proof — this is what an evaluating poller does
// implicitly when verifying the vote effort in full. Exposed for the real
// node's evaluation path and for tests.
func (m *MBF) RecomputeByproduct(p *MBFProof, context []byte) (Receipt, bool) {
	digest := sha1.New()
	digest.Write([]byte("lockss/mbf-byproduct"))
	digest.Write(context)
	segSteps := m.Steps / m.Checkpoints
	for u := 0; u < p.Units; u++ {
		start, mix := ctxSeed(context, u)
		state := start
		for c := 0; c < m.Checkpoints; c++ {
			steps := segSteps
			if c == m.Checkpoints-1 {
				steps = m.Steps - segSteps*(m.Checkpoints-1)
			}
			state = m.walkFrom(state, steps, mix)
			if state != p.Checkpoints[u][c+1] {
				return Receipt{}, false
			}
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], state)
		digest.Write(buf[:])
	}
	var r Receipt
	copy(r[:], digest.Sum(nil))
	if commitReceipt(r, context) != p.Digest {
		return Receipt{}, false
	}
	return r, true
}
