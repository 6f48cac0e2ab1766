package wire

import (
	"encoding/binary"
	"errors"
	"math"
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
	oneWalk, _ := mbf.Generate([]byte("intro"), 1, 1.5)
	var nonce protocol.Nonce
	copy(nonce[:], "0123456789abcdef")
	var receipt effort.Receipt
	copy(receipt[:], "receipt-receipt-1234")
	return []*protocol.Msg{
		{
			Type: protocol.MsgPoll, AU: 3, PollID: 77, Poller: 1, Voter: 2,
			VoteBy: 1000, PollDeadline: 2000,
			Proof: oneWalk,
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
			Nonce: nonce, Proof: mbfProof,
		},
		{
			Type: protocol.MsgVote, AU: 3, PollID: 77, Poller: 1, Voter: 2,
			Vote:        protocol.HashVote{Hashes: []content.Hash{{1}, {2}, {3}}},
			Nominations: []ids.PeerID{4, 5, 6},
			Proof:       oneWalk,
		},
		{Type: protocol.MsgVote, AU: 3, PollID: 77, Poller: 1, Voter: 2}, // no vote, no proof
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
		if !reflect.DeepEqual(m, back) {
			t.Errorf("msg %d (%v): round trip mismatch:\n got %+v\nwant %+v", i, m.Type, back, m)
		}
	}
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

// header starts a hand-built frame of type t.
func header(t protocol.MsgType) []byte {
	b := binary.BigEndian.AppendUint32([]byte{byte(t)}, 1) // AU
	b = binary.BigEndian.AppendUint64(b, 0)                // poll ID
	return append(b, 0, 0, 0, 1, 0, 0, 0, 2)               // poller, voter
}

// hostileFrame is a frame that claims more than it carries. A truncated one
// claims dimensions within the decoder's limits.
type hostileFrame struct {
	name      string
	data      []byte
	truncated bool
}

func hostileFrames() []hostileFrame {
	be := binary.BigEndian
	mbf := func(units, rowLen uint32) []byte {
		b := be.AppendUint64(be.AppendUint64(header(protocol.MsgPoll), 1000), 2000)
		b = be.AppendUint32(append(b, proofMBF), units)
		return be.AppendUint32(be.AppendUint64(b, 0), rowLen)
	}
	hashes := func(n uint32) []byte {
		return be.AppendUint32(append(header(protocol.MsgVote), voteHashes), n)
	}
	return []hostileFrame{
		{"poll proof of 1024x4096 words", mbf(1024, MaxCheckpoints), true},
		{"vote of 2^20 hashes", hashes(1 << 20), true},
		{"poll proof of 65536 empty rows", mbf(MaxProofUnits, 0), false},
		{"vote of 2^31-1 hashes", hashes(1<<31 - 1), false},
	}
}

// TestHostileDimensionsRejected: a frame that claims more elements than it
// carries is refused before Decode allocates them. The frames are a few dozen
// bytes; the rows or hashes they claim would take 1.5 MiB to 64 GiB.
func TestHostileDimensionsRejected(t *testing.T) {
	for _, f := range hostileFrames() {
		_, err := Decode(f.data)
		if err == nil || f.truncated && !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want a refusal (ErrTruncated: %v)", f.name, err, f.truncated)
		}
		if n, limit := decodeAllocated(f.data), decodeAllocLimit(len(f.data)); n > limit {
			t.Errorf("%s: decoding %d bytes allocated %d B, over %d", f.name, len(f.data), n, limit)
		}
	}
}

// retiredTagFrames are a proof under tag 1 and a vote under tag 2, each with
// the body the simulator's symbolic forms once had on the wire.
func retiredTagFrames() [][]byte {
	be := binary.BigEndian
	poll := be.AppendUint64(be.AppendUint64(header(protocol.MsgPoll), 1000), 2000)
	poll = append(be.AppendUint64(append(poll, 1), math.Float64bits(1)), 1)
	vote := be.AppendUint32(be.AppendUint32(append(header(protocol.MsgVote), 2), 512), 0)
	vote = append(be.AppendUint16(vote, 0), proofNone)
	return [][]byte{poll, vote}
}

// TestRetiredTagsRefused: the simulator's symbolic proofs and votes never
// cross the wire, so their tags decode as unknown.
func TestRetiredTagsRefused(t *testing.T) {
	for _, data := range retiredTagFrames() {
		if m, err := Decode(data); err == nil {
			t.Errorf("%x decoded as %+v", data, m)
		}
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
// smaller than the encoding less its digest.
func TestWireSizeModelsEncoding(t *testing.T) {
	for i, m := range sampleMsgs() {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		model := m.WireSize()
		if m.Proof == nil {
			if diff := model - len(data); diff < -8 || diff > 8 {
				t.Errorf("msg %d (%v): modeled %d vs encoded %d", i, m.Type, model, len(data))
			}
		} else if model < len(data)-32 {
			t.Errorf("msg %d (%v): model %d below encoding %d", i, m.Type, model, len(data))
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
