package protocol

import (
	"testing"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/sim"
)

// TestDrainFinishesInFlightPoll drains a peer mid-poll: the in-flight poll
// must run to its conclusion, no successor may start, and ActivePolls must
// reach zero and stay there.
func TestDrainFinishesInFlightPoll(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.p.Start()
	if h.p.ActivePolls() != 1 {
		t.Fatalf("ActivePolls = %d after Start, want 1", h.p.ActivePolls())
	}
	h.p.Drain()
	if !h.p.draining {
		t.Fatal("draining false after Drain")
	}
	h.pump(3 * sim.Duration(cfg.PollInterval))
	st := h.p.Stats()
	if st.PollsConcluded() != 1 {
		t.Fatalf("PollsConcluded = %d after drain, want exactly the in-flight poll: %+v", st.PollsConcluded(), st)
	}
	if st.PollsStarted != 1 {
		t.Fatalf("PollsStarted = %d, want 1 (no successor during drain)", st.PollsStarted)
	}
	if h.p.ActivePolls() != 0 {
		t.Fatalf("ActivePolls = %d after drain horizon, want 0", h.p.ActivePolls())
	}
}

// TestPollsStartedCounter checks the started counter tracks conclusions one
// ahead (a new poll is always in flight when not draining).
func TestPollsStartedCounter(t *testing.T) {
	h := newPollerHarness(t, pollerConfig(), []ids.PeerID{2, 3, 4, 5, 6})
	h.p.Start()
	h.pump(3 * sim.Duration(pollerConfig().PollInterval))
	st := h.p.Stats()
	if st.PollsStarted != st.PollsConcluded()+1 {
		t.Errorf("PollsStarted = %d, want concluded+1 = %d", st.PollsStarted, st.PollsConcluded()+1)
	}
}

// auInfo finds au's snapshot among p's.
func auInfo(p *Peer, au content.AUID) (AUInfo, bool) {
	for _, info := range p.AUInfos() {
		if info.Spec.ID == au {
			return info, true
		}
	}
	return AUInfo{}, false
}

// TestAUInfoSnapshot exercises the inspection snapshot: spec, damage list,
// in-flight poll deadline and graded reference list.
func TestAUInfoSnapshot(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.replica.Damage(2)
	h.p.Start()

	info, ok := auInfo(h.p, 1)
	if !ok {
		t.Fatal("AU 1 not found")
	}
	if info.Spec.ID != 1 || info.Spec.Blocks() != 4 {
		t.Errorf("unexpected spec %+v", info.Spec)
	}
	if len(info.DamagedBlocks) != 1 || info.DamagedBlocks[0] != 2 {
		t.Errorf("DamagedBlocks = %v, want [2]", info.DamagedBlocks)
	}
	if !info.PollActive || info.PollDeadline <= 0 {
		t.Errorf("expected an in-flight poll with a deadline, got %+v", info)
	}
	if info.LastSuccess >= 0 {
		t.Errorf("LastSuccess = %v before any success", info.LastSuccess)
	}
	if len(info.RefList) != 5 {
		t.Fatalf("RefList size = %d, want 5", len(info.RefList))
	}
	for i := 1; i < len(info.RefList); i++ {
		if info.RefList[i-1].Peer >= info.RefList[i].Peer {
			t.Fatalf("RefList not sorted: %+v", info.RefList)
		}
	}
	// The harness seeds every voter Even.
	for _, e := range info.RefList {
		if e.Grade.String() != "even" {
			t.Errorf("grade of %v = %v, want even", e.Peer, e.Grade)
		}
	}
	if _, ok := auInfo(h.p, 99); ok {
		t.Error("AU 99 should not exist")
	}
	if n := len(h.p.AUInfos()); n != 1 {
		t.Errorf("AUInfos len = %d, want 1", n)
	}

	// After repair, the damage list empties and the generation advances.
	gen := info.Generation
	h.pump(2 * sim.Duration(cfg.PollInterval))
	info, _ = auInfo(h.p, 1)
	if len(info.DamagedBlocks) != 0 {
		t.Errorf("DamagedBlocks = %v after repair horizon", info.DamagedBlocks)
	}
	if info.Generation == gen {
		t.Error("generation unchanged across a repair")
	}
	if info.LastSuccess < 0 {
		t.Error("LastSuccess unset after successful polls")
	}
	var _ content.Replica = h.replica
}
