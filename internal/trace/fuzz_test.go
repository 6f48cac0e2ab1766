package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceDecode hammers the trace reader with truncated, corrupt and
// reordered input. The contract: Read either returns a validated trace or an
// error — it never panics — and anything it accepts renders output keys and
// replays without panicking either: Replay returns an error or a Result.
func FuzzTraceDecode(f *testing.F) {
	valid := recordSample(f)
	lines := bytes.Split(bytes.TrimSuffix(valid, []byte("\n")), []byte("\n"))

	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("{}\n{}\n"))
	f.Add(valid[:len(valid)/2])                       // truncated mid-record
	f.Add(append([]byte{}, lines[0]...))              // header only, no newline
	f.Add(mutateLine(f, valid, 2, lines[4]))          // reordered seq
	f.Add(mutateLine(f, valid, 1, lines[1][:20]))     // corrupt record JSON
	f.Add(mutateLine(f, valid, 0, []byte(`{"k":1}`))) // header wrong type
	f.Add(mutateLine(f, valid, 1,
		[]byte(`{"k":"recv","q":1,"t":5,"from":2,"frame":"AAAA"}`))) // undecodable frame
	f.Add(mutateLine(f, valid, 1,
		[]byte(`{"k":"repair","q":1,"t":5,"au":1,"block":-1}`))) // negative block
	f.Add(unissuedTimerTrace(f)) // a timer ID naming a free slot

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted traces must be internally consistent enough to render.
		var prev uint64
		for i := range tr.Events {
			rec := &tr.Events[i]
			if rec.Seq != prev+1 {
				t.Fatalf("accepted trace has unordered seq %d after %d", rec.Seq, prev)
			}
			prev = rec.Seq
			_ = rec.Key()
			_ = rec.IsInput()
		}
		_ = tr.Outputs()
		if res, err := Replay(tr); err == nil && res == nil {
			t.Fatal("Replay returned neither a result nor an error")
		}
	})
}
