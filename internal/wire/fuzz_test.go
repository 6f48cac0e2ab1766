package wire

import "testing"

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
