package telemetry

import (
	"slices"
	"sync"
	"testing"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// TestSpanAggregation drives one full poll lifecycle through the observer
// interfaces and checks the resulting span and histogram samples.
func TestSpanAggregation(t *testing.T) {
	tel := New()
	var (
		peer   = ids.PeerID(1)
		voter  = ids.PeerID(2)
		au     = content.AUID(7)
		pollID = uint64(42)
		t0     = sched.Time(1000)
	)
	tel.PollStarted(peer, au, pollID, t0)
	tel.VoteSolicited(peer, voter, au, pollID, t0+10)
	tel.VoteSolicited(peer, 3, au, pollID, t0+11)
	tel.VoteReceived(peer, voter, au, pollID, t0+10, t0+60)
	tel.TallyStarted(peer, au, pollID, t0+100)
	tel.RepairRequested(peer, voter, au, pollID, 5, t0+120)
	tel.RepairApplied(peer, au, pollID, 5, t0+150)
	tel.PollConcluded(peer, au, pollID, protocol.OutcomeSuccess, t0, t0+200)

	polls := tel.Polls()
	if len(polls) != 1 {
		t.Fatalf("Polls() = %+v, want one span", polls)
	}
	s := polls[0]
	if s.PollID != pollID || s.Peer != 1 || s.AU != 7 {
		t.Errorf("span identity: %+v", s)
	}
	if s.Solicits != 2 || s.Votes != 1 || s.Repairs != 1 {
		t.Errorf("span counters: %+v", s)
	}
	if s.Outcome != "success" || s.StartedNs != 1000 || s.ConcludedNs != 1200 || s.DurationNs != 200 {
		t.Errorf("span timing: %+v", s)
	}

	check := func(name string, h *Histogram, count uint64, sum int64) {
		t.Helper()
		if snap := h.Snapshot(); snap.Count != count || snap.Sum != sum {
			t.Errorf("%s: count=%d sum=%d, want count=%d sum=%d", name, snap.Count, snap.Sum, count, sum)
		}
	}
	check("PollDuration", &tel.PollDuration, 1, 200)
	check("SolicitToVote", &tel.SolicitToVote, 1, 50)
	check("TallyTime", &tel.TallyTime, 1, 100)
	check("RepairTime", &tel.RepairTime, 1, 30)

	// Every lifecycle event also landed in the flight recorder.
	wantKinds := []string{"poll-start", "solicit", "solicit", "vote-in", "tally", "repair-req", "repair", "conclude"}
	ev := tel.Ring().Snapshot()
	if len(ev) != len(wantKinds) {
		t.Fatalf("ring has %d events: %+v", len(ev), ev)
	}
	for i, e := range ev {
		if e.Kind != wantKinds[i] {
			t.Errorf("ring event %d kind %q, want %q", i, e.Kind, wantKinds[i])
		}
	}
}

// TestConcludeWithoutStart pins the recorder-attached-late path: a
// conclusion with no in-flight span synthesizes one from the event alone.
func TestConcludeWithoutStart(t *testing.T) {
	tel := New()
	tel.PollConcluded(1, 2, 99, protocol.OutcomeInquorate, 500, 900)
	polls := tel.Polls()
	if len(polls) != 1 {
		t.Fatalf("Polls() = %+v", polls)
	}
	s := polls[0]
	if s.PollID != 99 || s.Outcome != "inquorate" || s.StartedNs != 500 || s.DurationNs != 400 {
		t.Errorf("synthesized span: %+v", s)
	}
}

// TestRecentEviction pins the concluded-span table's circular behavior:
// oldest spans fall off, survivors come back oldest first, in-flight spans
// follow.
func TestRecentEviction(t *testing.T) {
	tel := NewSized(16, 2)
	for id := uint64(1); id <= 3; id++ {
		tel.PollStarted(1, 1, id, sched.Time(id*100))
		tel.PollConcluded(1, 1, id, protocol.OutcomeSuccess, sched.Time(id*100), sched.Time(id*100+50))
	}
	tel.PollStarted(1, 1, 4, 1000)
	polls := tel.Polls()
	if len(polls) != 3 {
		t.Fatalf("Polls() = %+v, want spans 2, 3 and in-flight 4", polls)
	}
	if polls[0].PollID != 2 || polls[1].PollID != 3 {
		t.Errorf("concluded order: %+v", polls)
	}
	if polls[2].PollID != 4 || polls[2].Outcome != "" {
		t.Errorf("in-flight span: %+v", polls[2])
	}
}

// TestHistoryKeepsTheLatest: the bounded table behind both the concluded
// spans and the supplied votes drops its oldest entries and reads back
// oldest first, before and after it wraps.
func TestHistoryKeepsTheLatest(t *testing.T) {
	h := newHistory[int](3)
	for v := 1; v <= 7; v++ {
		h.push(v)
		var want []int
		for w := max(1, v-2); w <= v; w++ {
			want = append(want, w)
		}
		if got := h.appendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("after pushing 1..%d: %v, want %v", v, got, want)
		}
	}
}

// TestTelemetryConcurrent hammers the whole recorder from concurrent
// poll lifecycles while readers pull spans, votes, ring snapshots and
// histogram snapshots — the always-on record path under -race.
func TestTelemetryConcurrent(t *testing.T) {
	tel := NewSized(256, 64)
	const workers, pollsPer = 8, 200
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tel.Polls()
			_ = tel.Votes()
			_ = tel.Ring().Snapshot()
			_ = tel.PollDuration.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peer := ids.PeerID(w + 1)
			for i := 0; i < pollsPer; i++ {
				id := uint64(w)<<32 | uint64(i)
				t0 := sched.Time(i * 10)
				tel.PollStarted(peer, 1, id, t0)
				tel.VoteSolicited(peer, peer+1, 1, id, t0+1)
				tel.VoteReceived(peer, peer+1, 1, id, t0+1, t0+3)
				tel.VoteSupplied(peer, peer+1, 1, id, t0+4)
				tel.PollConcluded(peer, 1, id, protocol.OutcomeSuccess, t0, t0+5)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := tel.PollDuration.Snapshot().Count; got != workers*pollsPer {
		t.Errorf("PollDuration count = %d, want %d", got, workers*pollsPer)
	}
	if got := tel.SolicitToVote.Snapshot().Count; got != workers*pollsPer {
		t.Errorf("SolicitToVote count = %d, want %d", got, workers*pollsPer)
	}
	if n := len(tel.Polls()); n != 64 {
		t.Errorf("recent table has %d spans, want the cap 64", n)
	}
}
