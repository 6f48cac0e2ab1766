package wire

import (
	"bytes"
	"math"
	"runtime/metrics"
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

// heapAllocated reads the bytes the program has allocated so far, without
// stopping the world.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// decodeAllocated returns the bytes one Decode of data allocates: the least of
// three decodes, since the counter takes in small objects when their span is
// refilled or a GC cycle flushes the allocator's caches, which may fall
// within any one decode.
func decodeAllocated(data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		before := heapAllocated()
		Decode(data)
		least = min(least, heapAllocated()-before)
	}
	return least
}

// decodeAllocLimit is the most a Decode of n bytes may allocate: a decoded
// MBF row of one word costs 32 bytes for the 8 it takes on the wire, the
// most of any field, and the constant covers the message itself.
func decodeAllocLimit(n int) uint64 { return 8*uint64(n) + 64<<10 }

// FuzzDecodeCanonical holds Decode to the canonical form: whatever decodes
// re-encodes to exactly the bytes it came from, so no message has two
// encodings, and Msg.WireSize stays within the band TestWireSizeModelsEncoding
// allows. Whether it accepts a frame or refuses it, Decode allocates at most
// decodeAllocLimit. The hand-written seeds are forms Decode once accepted or
// over-allocated for: a boolean byte other than 0 or 1, an empty MBF proof
// with a nonzero row length, the retired tags of the simulator's symbolic
// proof and vote, and dimensions the frame does not carry.
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
	mbf, _ := Encode(&protocol.Msg{Type: protocol.MsgPoll, Proof: &effort.MBFProof{}})
	mbf[HeaderSize+16+1+4+8+3] = 1 // row length of a proof with no rows
	f.Add(mbf)
	for _, data := range retiredTagFrames() {
		f.Add(data)
	}
	for _, h := range hostileFrames() {
		f.Add(h.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, limit := decodeAllocated(data), decodeAllocLimit(len(data)); n > limit {
			t.Fatalf("decoding %d bytes allocated %d B, over %d", len(data), n, limit)
		}
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
		if d := m.WireSize() - len(data); d < -32 || d > 8 {
			t.Fatalf("WireSize %d for a %d-byte %v", m.WireSize(), len(data), m.Type)
		}
	})
}
