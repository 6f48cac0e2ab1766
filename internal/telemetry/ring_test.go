package telemetry

import (
	"sync"
	"testing"
)

func TestRingAppendSnapshot(t *testing.T) {
	r := NewRing(16)
	if len(r.slots) != 16 {
		t.Fatalf("%d slots", len(r.slots))
	}
	r.Append(EvPollStart, 100, 1, 0, 7, 42, 0, 0)
	r.Append(EvSolicit, 110, 1, 2, 7, 42, 0, 0)
	r.Append(EvConclude, 200, 1, 0, 7, 42, 0, 3)
	ev := r.Snapshot()
	if len(ev) != 3 {
		t.Fatalf("snapshot has %d events: %+v", len(ev), ev)
	}
	for i, e := range ev {
		if e.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if e := ev[1]; e.Kind != "solicit" || e.T != 110 || e.Peer != 1 || e.Other != 2 || e.AU != 7 || e.PollID != 42 {
		t.Errorf("solicit event round trip: %+v", e)
	}
	if e := ev[2]; e.Kind != "conclude" || e.Outcome != 3 {
		t.Errorf("conclude event round trip: %+v", e)
	}
	if r.next.Load() != 3 {
		t.Errorf("Appended = %d", r.next.Load())
	}
}

func TestRingMinimumSize(t *testing.T) {
	if got := len(NewRing(1).slots); got != 16 {
		t.Errorf("len(NewRing(1).slots) = %d, want 16", got)
	}
	if got := len(NewRing(17).slots); got != 32 {
		t.Errorf("len(NewRing(17).slots) = %d, want 32 (power of two)", got)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(16)
	const total = 40
	for i := 0; i < total; i++ {
		r.Append(EvVoteOut, int64(i), uint32(i), 0, 1, uint64(i), 0, 0)
	}
	ev := r.Snapshot()
	if len(ev) != 16 {
		t.Fatalf("snapshot has %d events after wraparound, want 16", len(ev))
	}
	for i, e := range ev {
		if e.Seq < total-16 {
			t.Errorf("stale event survived wraparound: seq %d", e.Seq)
		}
		if i > 0 && e.Seq != ev[i-1].Seq+1 {
			t.Errorf("snapshot not dense: seq %d after %d", e.Seq, ev[i-1].Seq)
		}
		// t, peer and pollID were all derived from the append index, so any
		// torn slot would break the correlation.
		if e.T != int64(e.Seq) || uint64(e.Peer) != e.Seq || e.PollID != e.Seq {
			t.Errorf("event fields inconsistent: %+v", e)
		}
	}
	if r.next.Load() != total {
		t.Errorf("Appended = %d, want %d", r.next.Load(), total)
	}
}

// TestRingConcurrent races a snapshot reader against appending writers —
// the seqlock must keep the reader race-detector-clean and every returned
// event internally consistent.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const writers, per = 4, 5_000
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ev := r.Snapshot()
			for i, e := range ev {
				if i > 0 && e.Seq <= ev[i-1].Seq {
					t.Errorf("snapshot out of order: %d after %d", e.Seq, ev[i-1].Seq)
					return
				}
				if e.T != int64(e.PollID) {
					t.Errorf("torn event: t=%d poll=%d", e.T, e.PollID)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := uint64(w*per + i)
				r.Append(EvVoteIn, int64(v), uint32(w), 0, 1, v, 0, 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if r.next.Load() != writers*per {
		t.Fatalf("Appended = %d, want %d", r.next.Load(), writers*per)
	}
}
