// Package effort models proofs of computational effort for the LOCKSS
// effort-balancing defense.
//
// Two implementations coexist behind one accounting model:
//
//   - A cost model (this file) expressing every protocol operation in
//     "effort-seconds" on the paper's reference low-cost 2005 PC. The
//     discrete-event simulator charges these against each peer's task
//     schedule and the attacker/defender cost ledgers.
//   - A real, simplified memory-bound function (mbf.go) with the three
//     properties the protocol needs: provable cost, cheaper verification,
//     and a 160-bit unforgeable byproduct used as the evaluation receipt.
//     The real node and the integration tests use it.
package effort

import (
	"fmt"
	"time"
)

// Seconds is an amount of computational effort, measured as seconds of
// compute on the reference machine. Effort is additive.
type Seconds float64

// Duration converts effort to simulated compute time at 1x the reference
// machine's speed.
func (s Seconds) Duration() time.Duration {
	return time.Duration(float64(s) * float64(time.Second))
}

func (s Seconds) String() string { return fmt.Sprintf("%.3fes", float64(s)) }

// CostModel holds the primitive-operation costs used to charge simulated
// effort. The defaults approximate the paper's low-cost PC (§6.3: "We set
// all costs of primitive operations ... to match the capabilities of such a
// low-cost PC").
type CostModel struct {
	// HashBytesPerSec is the content hashing throughput (SHA-1 class on a
	// 2005 PC, dominated by disk+hash; the paper's AUs are read from disk).
	HashBytesPerSec float64

	// MBFVerifyFraction is the cost of verifying an MBF proof relative to
	// generating it. Memory-bound functions verify cheaper than they
	// generate, but by a modest factor compared to CPU puzzles.
	MBFVerifyFraction float64

	// SessionSetup is the cost of establishing the per-poll encrypted
	// session (anonymous Diffie-Hellman key exchange + TLS handshake).
	SessionSetup Seconds

	// ScheduleCheck is the bookkeeping cost of consulting the local task
	// schedule when considering a poll invitation.
	ScheduleCheck Seconds

	// IntroEffortFraction is the fraction of the total poller effort that
	// must be proven in the Poll message itself (the "introductory effort").
	// The paper sets this to 20% so that, at a 0.2 admission probability for
	// in-debt identities, an attacker spends on average 100% of the honest
	// cost before his invitation is even admitted (§6.3).
	IntroEffortFraction float64

	// ReceiptCheck is the voter's cost to compare an evaluation receipt with
	// the remembered MBF byproduct.
	ReceiptCheck Seconds
}

// DefaultCostModel returns the calibrated 2005-PC cost model used across the
// evaluation. See EXPERIMENTS.md for the calibration notes.
func DefaultCostModel() CostModel {
	return CostModel{
		HashBytesPerSec:     64 << 20, // 64 MiB/s read+hash
		MBFVerifyFraction:   1.0 / 8,
		SessionSetup:        0.05,
		ScheduleCheck:       0.005,
		IntroEffortFraction: 0.20,
		ReceiptCheck:        0.001,
	}
}

// DemoCostModel is the cost model of a loopback cluster whose poll interval
// is compressed to seconds: effort scheduling is negligible against the
// compressed timescales (hashing 128 KiB "costs" ~2us of schedule) while
// remaining non-zero.
func DemoCostModel() CostModel {
	m := DefaultCostModel()
	m.HashBytesPerSec = 64 << 30
	m.SessionSetup = 1e-6
	m.ScheduleCheck = 1e-6
	m.ReceiptCheck = 1e-6
	return m
}

// HashCost returns the effort to read and hash n bytes of content.
func (m CostModel) HashCost(n int64) Seconds {
	return Seconds(float64(n) / m.HashBytesPerSec)
}

// VerifyCost returns the effort to verify a proof that cost gen to generate.
func (m CostModel) VerifyCost(gen Seconds) Seconds {
	return Seconds(float64(gen) * m.MBFVerifyFraction)
}

// PollEffort describes the per-solicitation effort budget that effort
// balancing imposes on poller and voter, derived from the AU size. All the
// protocol's balance conditions (§5.1 of the paper) are encoded here:
//
//   - The voter's cost to produce a vote is hashing the AU plus generating
//     the vote's own provable effort (which must cover the poller's cost of
//     detecting a bogus vote: hashing one block plus verifying that effort).
//   - The poller's total provable effort (Poll intro + PollProof remainder)
//     must exceed the voter's verification plus vote-production cost.
//   - The intro effort alone must cover what the voter could expend while
//     waiting for the PollProof before timing out (anti-reservation).
type PollEffort struct {
	// VoteHash is the voter's cost to hash its AU replica for one vote.
	VoteHash Seconds
	// VoteProof is the provable effort the voter embeds in the Vote message.
	VoteProof Seconds
	// Intro is the provable effort carried by the Poll message alone.
	Intro Seconds
	// Remainder is the provable effort carried by the PollProof message.
	Remainder Seconds
	// EvalHash is the poller's cost to hash its own replica when evaluating
	// one vote (same content walk as the voter's).
	EvalHash Seconds
}

// PollEffortFor derives the balanced effort budget for an AU of the given
// size and block count.
func (m CostModel) PollEffortFor(auBytes int64, blocks int) PollEffort {
	if blocks <= 0 {
		blocks = 1
	}
	voteHash := m.HashCost(auBytes)
	blockHash := m.HashCost(auBytes / int64(blocks))
	// Voter's proof must cover hashing one block + verifying this proof.
	// Solve p = blockHash + verifyFraction*p  =>  p = blockHash/(1-f).
	voteProof := Seconds(float64(blockHash) / (1 - m.MBFVerifyFraction))
	// Poller must out-invest the voter's full production cost plus the
	// voter's cost to verify the poller's proofs, plus a safety margin for
	// generating the vote proof. Solve for total T:
	//   T >= voterVerify(T) + voteHash + voteProof
	//   T >= f*T + voteHash + voteProof  =>  T = (voteHash+voteProof)/(1-f)
	// with a 5% margin on top.
	total := Seconds(1.05 * float64(voteHash+voteProof) / (1 - m.MBFVerifyFraction))
	intro := Seconds(float64(total) * m.IntroEffortFraction)
	return PollEffort{
		VoteHash:  voteHash,
		VoteProof: voteProof,
		Intro:     intro,
		Remainder: total - intro,
		EvalHash:  voteHash,
	}
}

// Kind names what a charge of effort paid for. The set is closed: the
// protocol's nine defender operations and the adversary's three.
type Kind uint8

const (
	KindSession Kind = iota
	KindConsider
	KindIntroGen
	KindRemainderGen
	KindVerify
	KindVote
	KindEval
	KindRepair
	KindReceipt
	KindAttackIntro
	KindAttackRemainder
	KindAttackEval
	// NumKinds is the number of kinds, the length of a ledger's breakdown.
	NumKinds
)

var kindNames = [NumKinds]string{
	"session", "consider", "intro-gen", "remainder-gen", "verify", "vote",
	"eval", "repair", "receipt", "attack-intro", "attack-remainder", "attack-eval",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Ledger accumulates effort attributed to one party (a peer or the
// adversary). The metrics package reads ledgers to compute the coefficient
// of friction and the cost ratio. The zero Ledger is empty and ready to use.
type Ledger struct {
	Total Seconds
	// ByKind breaks the total down for diagnostics and tests.
	ByKind [NumKinds]Seconds
}

// Charge adds effort of the given kind.
func (l *Ledger) Charge(kind Kind, e Seconds) {
	if e < 0 {
		panic("effort: negative charge")
	}
	l.Total += e
	l.ByKind[kind] += e
}
