package wire

import (
	"bytes"
	"testing"

	"lockss/internal/effort"
	"lockss/internal/protocol"
)

// FuzzPeek: Peek never panics, whatever the bytes; and for every input
// Decode accepts, Peek reports the same type, AU, poll ID and claimed poller
// and voter — so a decision taken on the peeked header is a decision about
// the message the actor would have seen.
func FuzzPeek(f *testing.F) {
	for _, m := range sampleMsgs() {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:HeaderSize])
		f.Add(data[:HeaderSize-1])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, ok := Peek(data)
		if ok != (len(data) >= HeaderSize) {
			t.Fatalf("Peek ok=%v on %d bytes", ok, len(data))
		}
		m, err := Decode(data)
		if err != nil {
			return
		}
		if !ok {
			t.Fatalf("Decode accepted %d bytes that Peek refused", len(data))
		}
		if got := (Header{m.Type, m.AU, m.PollID, m.Poller, m.Voter}); got != h {
			t.Fatalf("Peek = %+v, Decode = %+v", h, got)
		}
	})
}

// FuzzDecodeCanonical holds Decode to the canonical form: whatever decodes
// re-encodes to exactly the bytes it came from, so no message has two
// encodings, and Msg.WireSize stays within the band TestWireSizeModelsEncoding
// allows for the representations a real node sends. The hand-written seeds
// are non-canonical forms Decode once accepted: a boolean byte other than 0
// or 1, and an empty MBF proof with a nonzero row length.
func FuzzDecodeCanonical(f *testing.F) {
	for _, m := range sampleMsgs() {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	ack, _ := Encode(&protocol.Msg{Type: protocol.MsgPollAck, Accept: true})
	ack[HeaderSize] = 2
	f.Add(ack)
	sim, _ := Encode(&protocol.Msg{Type: protocol.MsgPoll, Proof: effort.SimProof{Effort: 1, Genuine: true}})
	sim[len(sim)-1] = 7
	f.Add(sim)
	mbf, _ := Encode(&protocol.Msg{Type: protocol.MsgPoll, Proof: &effort.MBFProof{}})
	mbf[HeaderSize+16+1+4+8+3] = 1 // row length of a proof with no rows
	f.Add(mbf)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", m, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %+v, which encodes as %x", data, m, again)
		}
		_, simProof := m.Proof.(effort.SimProof)
		_, simVote := m.Vote.(protocol.SimVote)
		if d := m.WireSize() - len(data); !simProof && !simVote && (d < -32 || d > 8) {
			t.Fatalf("WireSize %d for a %d-byte %v", m.WireSize(), len(data), m.Type)
		}
	})
}
