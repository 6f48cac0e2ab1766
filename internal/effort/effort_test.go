package effort

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashCost(t *testing.T) {
	m := DefaultCostModel()
	c := m.HashCost(64 << 20)
	if math.Abs(float64(c)-1.0) > 1e-9 {
		t.Errorf("hashing 64 MiB at 64 MiB/s should cost 1s, got %v", c)
	}
}

func TestVerifyCheaperThanGenerate(t *testing.T) {
	m := DefaultCostModel()
	gen := Seconds(8)
	if v := m.VerifyCost(gen); v >= gen || v <= 0 {
		t.Errorf("verification cost %v not in (0, %v)", v, gen)
	}
}

// TestPollEffortBalance checks the §5.1 balance conditions the derivation
// must guarantee.
func TestPollEffortBalance(t *testing.T) {
	m := DefaultCostModel()
	pe := m.PollEffortFor(512<<20, 512)

	// The vote proof covers detecting a bogus vote: one block hash plus
	// verifying the proof itself.
	blockHash := m.HashCost((512 << 20) / 512)
	if float64(pe.VoteProof) < float64(blockHash+m.VerifyCost(pe.VoteProof))-1e-9 {
		t.Errorf("vote proof %v does not cover block hash %v + verify %v",
			pe.VoteProof, blockHash, m.VerifyCost(pe.VoteProof))
	}
	// The poller's total provable effort (Poll plus PollProof) exceeds the
	// voter's cost to verify it plus produce the vote.
	total := pe.Intro + pe.Remainder
	voterCost := m.VerifyCost(total) + pe.VoteHash + pe.VoteProof
	if float64(total) <= float64(voterCost) {
		t.Errorf("poller total %v does not exceed voter cost %v", total, voterCost)
	}
	// Intro fraction.
	if math.Abs(float64(pe.Intro)/float64(total)-m.IntroEffortFraction) > 1e-9 {
		t.Errorf("intro %v is not %v of total %v", pe.Intro, m.IntroEffortFraction, total)
	}
	// Five expected attempts at the in-debt drop rate cost the attacker at
	// least the full poller effort (the paper's calibration).
	if 5*float64(pe.Intro) < float64(total)*0.999 {
		t.Errorf("5 x intro (%v) should reach the total (%v)", 5*pe.Intro, total)
	}
}

func TestPollEffortDegenerate(t *testing.T) {
	m := DefaultCostModel()
	pe := m.PollEffortFor(100, 0) // zero blocks clamps to 1
	if pe.VoteHash <= 0 || pe.Intro+pe.Remainder <= 0 {
		t.Errorf("degenerate AU should still cost something: %+v", pe)
	}
}

func TestLedger(t *testing.T) {
	var l Ledger
	l.Charge(KindVote, 3)
	l.Charge(KindVote, 2)
	l.Charge(KindEval, 1)
	if l.Total != 6 {
		t.Errorf("total %v, want 6", l.Total)
	}
	if l.ByKind[KindVote] != 5 || l.ByKind[KindEval] != 1 || l.ByKind[KindRepair] != 0 {
		t.Errorf("kind accounting wrong: %v", l.ByKind)
	}
	if KindSession.String() != "session" || KindAttackEval.String() != "attack-eval" || NumKinds.String() != "Kind(12)" {
		t.Errorf("kind names wrong: %v %v %v", KindSession, KindAttackEval, NumKinds)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative charge did not panic")
		}
	}()
	l.Charge(KindVote, -1)
}

func TestSimProof(t *testing.T) {
	for _, p := range []Proof{SimProof{Effort: 2.5, Genuine: true}, SimProof{Effort: 2.5}} {
		if p.Cost() != 2.5 {
			t.Errorf("%+v: Cost() = %v, want its claimed effort whether genuine or not", p, p.Cost())
		}
	}
}

func TestSimReceiptDeterministic(t *testing.T) {
	a := SimReceiptFor([]byte("ctx"), 3)
	b := SimReceiptFor([]byte("ctx"), 3)
	if a != b {
		t.Error("sim receipts not deterministic")
	}
	if SimReceiptFor([]byte("ctx2"), 3) == a {
		t.Error("different contexts share receipts")
	}
	if SimReceiptFor([]byte("ctx"), 4) == a {
		t.Error("different efforts share receipts")
	}
}

func testMBF() *MBF {
	return NewMBF(MBFParams{TableWords: 1 << 10, Steps: 1 << 8, Checkpoints: 8, VerifySegments: 3, Seed: 99})
}

func TestMBFGenerateVerify(t *testing.T) {
	m := testMBF()
	ctx := []byte("poll 1 voter 2")
	p, receipt := m.Generate(ctx, 2, 0.5)
	if p.Cost() != 1.0 {
		t.Errorf("cost %v, want 1.0", p.Cost())
	}
	if !m.Verify(p, ctx) {
		t.Error("honest proof rejected")
	}
	if m.Verify(p, []byte("other ctx")) {
		t.Error("proof verified under wrong context")
	}
	// The byproduct is recoverable by full evaluation and matches.
	got, ok := m.RecomputeByproduct(p, ctx)
	if !ok {
		t.Fatal("byproduct recomputation failed")
	}
	if !ReceiptMatches(receipt, got) {
		t.Error("recomputed byproduct differs from prover's receipt")
	}
	var zero Receipt
	if receipt == zero {
		t.Error("receipt is zero")
	}
}

func TestMBFTamperedCheckpointRejected(t *testing.T) {
	// Verification spot-checks segments, so a single tampered checkpoint is
	// caught probabilistically; with VerifySegments == Checkpoints every
	// segment is re-walked and tampering must always be caught.
	m := NewMBF(MBFParams{TableWords: 1 << 10, Steps: 1 << 8, Checkpoints: 8, VerifySegments: 8, Seed: 99})
	ctx := []byte("ctx")
	p, _ := m.Generate(ctx, 1, 1)
	for i := 1; i < len(p.Checkpoints[0]); i++ {
		p.Checkpoints[0][i] ^= 1
		if m.Verify(p, ctx) {
			t.Errorf("tampered checkpoint %d accepted", i)
		}
		p.Checkpoints[0][i] ^= 1
	}
	if !m.Verify(p, ctx) {
		t.Error("restored proof should verify")
	}
}

func TestMBFWrongStartRejected(t *testing.T) {
	m := testMBF()
	p, _ := m.Generate([]byte("a"), 1, 1)
	q, _ := m.Generate([]byte("b"), 1, 1)
	// Swap rows: contexts bind start states, so cross-use must fail.
	p.Checkpoints = q.Checkpoints
	if m.Verify(p, []byte("a")) {
		t.Error("proof with foreign walk accepted")
	}
}

func TestMBFProofInterface(t *testing.T) {
	m := testMBF()
	ctx := []byte("iface")
	p, _ := m.Generate(ctx, 1, 2)
	var pr Proof = p
	if pr.Cost() != 2 {
		t.Errorf("Cost() = %v", pr.Cost())
	}
	// A proof rebuilt from its fields, as the wire decodes it, verifies
	// against the shared table alone.
	clone := &MBFProof{Units: p.Units, Checkpoints: p.Checkpoints, Digest: p.Digest, UnitCost: p.UnitCost}
	if !m.Verify(clone, ctx) {
		t.Error("rebuilt proof failed to verify")
	}
}

func TestMBFDigestBindsByproduct(t *testing.T) {
	m := testMBF()
	ctx := []byte("d")
	p, _ := m.Generate(ctx, 1, 1)
	p.Digest[0] ^= 0xff
	if _, ok := m.RecomputeByproduct(p, ctx); ok {
		t.Error("corrupted digest commitment accepted")
	}
}

func TestReceiptMatches(t *testing.T) {
	var a, b Receipt
	a[0] = 1
	if ReceiptMatches(a, b) {
		t.Error("distinct receipts match")
	}
	b[0] = 1
	if !ReceiptMatches(a, b) {
		t.Error("equal receipts do not match")
	}
}

func TestMBFDeterministicByproduct(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		m := testMBF()
		ctx := make([]byte, 8)
		for i := range ctx {
			ctx[i] = byte(seed >> (8 * i))
		}
		_, r1 := m.Generate(ctx, 1, 1)
		_, r2 := m.Generate(ctx, 1, 1)
		return r1 == r2
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestSecondsDuration(t *testing.T) {
	if Seconds(2.5).Duration().Seconds() != 2.5 {
		t.Error("Seconds->Duration conversion wrong")
	}
	if Seconds(1.5).String() != "1.500es" {
		t.Errorf("String() = %q", Seconds(1.5).String())
	}
}
