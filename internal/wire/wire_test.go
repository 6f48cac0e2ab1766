package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// sampleMsgs builds one representative message of every type.
func sampleMsgs() []*protocol.Msg {
	mbf := effort.NewMBF(effort.MBFParams{TableWords: 1 << 8, Steps: 64, Checkpoints: 4, VerifySegments: 2, Seed: 1})
	mbfProof, _ := mbf.Generate([]byte("ctx"), 2, 0.5)
	var nonce protocol.Nonce
	copy(nonce[:], "0123456789abcdef")
	var receipt effort.Receipt
	copy(receipt[:], "receipt-receipt-1234")
	return []*protocol.Msg{
		{
			Type: protocol.MsgPoll, AU: 3, PollID: 77, Poller: 1, Voter: 2,
			VoteBy: 1000, PollDeadline: 2000,
			Proof: effort.SimProof{Effort: 1.5, Genuine: true},
		},
		{
			Type: protocol.MsgPoll, AU: 3, PollID: 78, Poller: 1, Voter: 2,
			VoteBy: 1000, PollDeadline: 2000,
			Proof: mbfProof,
		},
		{
			Type: protocol.MsgPoll, AU: 1, PollID: 79, Poller: 9, Voter: 8,
			VoteBy: 5, PollDeadline: 6, // no proof
		},
		{Type: protocol.MsgPollAck, AU: 3, PollID: 77, Poller: 1, Voter: 2, Accept: true},
		{Type: protocol.MsgPollAck, AU: 3, PollID: 77, Poller: 1, Voter: 2, Accept: false, Refuse: protocol.RefuseBusy},
		{
			Type: protocol.MsgPollProof, AU: 3, PollID: 77, Poller: 1, Voter: 2,
			Nonce: nonce, Proof: effort.SimProof{Effort: 8, Genuine: true},
		},
		{
			Type: protocol.MsgVote, AU: 3, PollID: 77, Poller: 1, Voter: 2,
			Vote:        protocol.HashVote{Hashes: []content.Hash{{1}, {2}, {3}}},
			Nominations: []ids.PeerID{4, 5, 6},
			Proof:       effort.SimProof{Effort: 0.02, Genuine: true},
		},
		{
			Type: protocol.MsgVote, AU: 3, PollID: 77, Poller: 1, Voter: 2,
			Vote: protocol.SimVote{NumBlocks: 512, Dam: []content.DamageEntry{{Block: 9, Mark: 0xdeadbeef}}},
		},
		{Type: protocol.MsgRepairRequest, AU: 3, PollID: 77, Poller: 1, Voter: 2, Block: 42},
		{
			Type: protocol.MsgRepair, AU: 3, PollID: 77, Poller: 1, Voter: 2,
			Block: 42, RepairData: []byte("block content bytes"),
		},
		{Type: protocol.MsgEvaluationReceipt, AU: 3, PollID: 77, Poller: 1, Voter: 2, Receipt: receipt},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for i, m := range sampleMsgs() {
		data, err := Encode(m)
		if err != nil {
			t.Fatalf("msg %d (%v): encode: %v", i, m.Type, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("msg %d (%v): decode: %v", i, m.Type, err)
		}
		normalize(m)
		normalize(back)
		if !reflect.DeepEqual(m, back) {
			t.Errorf("msg %d (%v): round trip mismatch:\n got %+v\nwant %+v", i, m.Type, back, m)
		}
	}
}

// normalize clears unexported/unserialized state (the MBF binding) so
// DeepEqual compares wire-visible content.
func normalize(m *protocol.Msg) {
	if mp, ok := m.Proof.(*effort.MBFProof); ok {
		clone := *mp
		m.Proof = &clone
		effortUnbind(m.Proof.(*effort.MBFProof))
	}
}

// effortUnbind zeroes the internal binding via re-construction.
func effortUnbind(p *effort.MBFProof) {
	*p = effort.MBFProof{Units: p.Units, Checkpoints: p.Checkpoints, Digest: p.Digest, UnitCost: p.UnitCost}
}

func TestDecodedMBFProofVerifies(t *testing.T) {
	mbf := effort.NewMBF(effort.MBFParams{TableWords: 1 << 8, Steps: 64, Checkpoints: 4, VerifySegments: 4, Seed: 1})
	proof, _ := mbf.Generate([]byte("ctx"), 1, 1)
	m := &protocol.Msg{Type: protocol.MsgPollProof, AU: 1, PollID: 2, Poller: 3, Voter: 4, Proof: proof}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	mp, ok := back.Proof.(*effort.MBFProof)
	if !ok {
		t.Fatalf("proof decoded as %T", back.Proof)
	}
	mbf.Bind(mp)
	if !mbf.Verify(mp, []byte("ctx")) {
		t.Error("decoded proof does not verify")
	}
}

func TestTruncatedInputs(t *testing.T) {
	for i, m := range sampleMsgs() {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				t.Errorf("msg %d: truncation at %d/%d accepted", i, cut, len(data))
				break
			}
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	data, _ := Encode(sampleMsgs()[0])
	if _, err := Decode(append(data, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	if _, err := Decode([]byte{0xEE, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4}); err == nil {
		t.Error("unknown message type accepted")
	}
}

func TestHostileDimensionsRejected(t *testing.T) {
	// A Vote claiming 2^31 hashes must not allocate.
	var buf bytes.Buffer
	buf.Write([]byte{byte(protocol.MsgVote)})
	buf.Write([]byte{0, 0, 0, 1})             // au
	buf.Write(make([]byte, 8))                // pollID
	buf.Write([]byte{0, 0, 0, 1, 0, 0, 0, 2}) // poller, voter
	buf.Write([]byte{1})                      // voteHashes tag
	buf.Write([]byte{0x7F, 0xFF, 0xFF, 0xFF}) // count
	if _, err := Decode(buf.Bytes()); err == nil {
		t.Error("hostile hash count accepted")
	}
}

func TestFuzzDecodeNoPanic(t *testing.T) {
	rnd := prng.New(1234)
	err := quick.Check(func(seed uint64, n uint16) bool {
		data := make([]byte, int(n)%512)
		for i := range data {
			data[i] = byte(rnd.Uint64())
		}
		// Must not panic; errors are fine.
		Decode(data)
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

// TestFuzzBitFlips: flipping any single byte of a valid encoding must not
// panic, and either errors or decodes to something well-formed.
func TestFuzzBitFlips(t *testing.T) {
	for _, m := range sampleMsgs() {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(data); i++ {
			mut := make([]byte, len(data))
			copy(mut, data)
			mut[i] ^= 0x5A
			Decode(mut) // must not panic
		}
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("nil message encoded")
	}
	if _, err := Encode(&protocol.Msg{Type: 0}); err == nil {
		t.Error("zero message type encoded")
	}
}

func TestNominationLimit(t *testing.T) {
	noms := make([]ids.PeerID, MaxNominations+1)
	m := &protocol.Msg{Type: protocol.MsgVote, Nominations: noms}
	if _, err := Encode(m); err == nil {
		t.Error("oversized nominations encoded")
	}
}

func TestDeadlinesSurvive(t *testing.T) {
	m := &protocol.Msg{
		Type: protocol.MsgPoll, AU: 1, PollID: 1, Poller: 1, Voter: 2,
		VoteBy: sched.Time(1<<60 + 7), PollDeadline: sched.Time(1<<61 + 3),
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.VoteBy != m.VoteBy || back.PollDeadline != m.PollDeadline {
		t.Error("large timestamps corrupted")
	}
}

// TestWireSizeModelsEncoding: the simulator times transfers using
// Msg.WireSize; for messages without effort proofs the model must match the
// real encoding closely, and for proof-bearing messages it must never be
// smaller than a same-shape real proof would occupy (simulated proofs are
// sized as-if-real, so the simulated network is never optimistically fast).
func TestWireSizeModelsEncoding(t *testing.T) {
	for i, m := range sampleMsgs() {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		model := m.WireSize()
		if _, symbolic := m.Vote.(protocol.SimVote); symbolic {
			// Symbolic votes are sized as the hash representation would be
			// (so network timing is representation-independent): the model
			// must dominate the sparse encoding.
			if model < len(data) {
				t.Errorf("msg %d (%v): symbolic model %d below encoding %d", i, m.Type, model, len(data))
			}
			continue
		}
		switch m.Proof.(type) {
		case nil:
			diff := model - len(data)
			if diff < -8 || diff > 8 {
				t.Errorf("msg %d (%v): modeled %d vs encoded %d", i, m.Type, model, len(data))
			}
		case *effort.MBFProof:
			if model < len(data)-32 {
				t.Errorf("msg %d (%v): model %d below encoding %d", i, m.Type, model, len(data))
			}
		case effort.SimProof:
			if model < len(data) {
				t.Errorf("msg %d (%v): sim-proof model %d below encoding %d", i, m.Type, model, len(data))
			}
		}
	}
}

// TestVerifierPricesProofsItself: an MBF proof's claimed price per walk
// travels on the wire but buys nothing. A real verifier prices a decoded
// proof at its own effort unit, so one genuine walk claiming a billion
// seconds does not cover an hour, while honest proofs — including ones
// longer than 64 walks — still verify.
func TestVerifierPricesProofsItself(t *testing.T) {
	params := effort.DemoMBFParams()
	ctx := []byte("intro context")
	forged, _ := effort.NewMBF(params).Generate(ctx, 1, 1e9)
	prover := protocol.NewRealEffort(1, 1, params, effort.DemoEffortUnit)
	verifier := protocol.NewRealEffort(2, 1, params, effort.DemoEffortUnit)
	for _, tc := range []struct {
		name string
		p    effort.Proof
		cost effort.Seconds
		want bool
	}{
		{"one walk claiming 1e9 s", forged, 3600, false},
		{"honest, 21 walks", prover.MakeProof(ctx, 1, nil), 1, true},
		{"honest, 201 walks", prover.MakeProof(ctx, 10, nil), 10, true},
	} {
		data, err := Encode(&protocol.Msg{Type: protocol.MsgPoll, AU: 1, PollID: 2, Poller: 3, Voter: 4, Proof: tc.p})
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := verifier.VerifyProof(ctx, back.Proof, tc.cost); got != tc.want {
			t.Errorf("%s: VerifyProof(%v) = %v, want %v", tc.name, tc.cost, got, tc.want)
		}
	}
}
