package world

import (
	"testing"

	"lockss/internal/sim"
)

// TestChurnIntegration: newcomers joining a running network work their way
// into non-friend reference lists within a few poll rounds.
func TestChurnIntegration(t *testing.T) {
	cfg := Default()
	cfg.Peers = 25
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = 2 * sim.Year
	cfg.DamageDiskYears = 0
	cfg.Churn = Churn{JoinPerYear: 6, MaxJoins: 5, FriendsPerJoiner: 4}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	stats := w.Joins

	t.Logf("churn: joined=%d integrated=%d newcomerPolls=%d newcomerVotes=%d",
		stats.Joined, stats.Integrated, stats.NewcomerPollsOK, stats.NewcomerVotes)
	if stats.Joined == 0 {
		t.Fatal("nobody joined")
	}
	if stats.NewcomerVotes == 0 {
		t.Error("newcomers never supplied votes")
	}
	if stats.NewcomerPollsOK == 0 {
		t.Error("newcomers never completed a poll")
	}
	if stats.Integrated == 0 {
		t.Error("no newcomer spread beyond its friends")
	}
	if len(w.Peers) != cfg.Peers+stats.Joined {
		t.Errorf("population bookkeeping wrong: %d peers, %d joins", len(w.Peers), stats.Joined)
	}
}

// TestChurnDisabled: zero-rate churn is a no-op.
func TestChurnDisabled(t *testing.T) {
	cfg := Default()
	cfg.Peers = 15
	cfg.AUs = 1
	cfg.AUSize = 16 << 20
	cfg.Duration = sim.Month
	cfg.DamageDiskYears = 0
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.Joins.Joined != 0 || len(w.Peers) != cfg.Peers {
		t.Error("disabled churn admitted joiners")
	}
}

// TestNewcomersPayTheWorldsCosts: a newcomer prices its polls and votes
// under the world's cost model, as a founder does, not under the default
// one. Every proof a peer makes carries a cost from its own model's poll
// budget, and the world interns proofs by cost, so a newcomer priced under
// another model leaves a cost no founder's budget has.
func TestNewcomersPayTheWorldsCosts(t *testing.T) {
	cfg := tinyConfig()
	cfg.Costs.HashBytesPerSec = 16 << 10
	cfg.Churn = Churn{JoinPerYear: 50, MaxJoins: 2, FriendsPerJoiner: 3}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.Joins.Joined == 0 || w.Joins.NewcomerVotes == 0 {
		t.Fatalf("newcomers never voted: %+v", w.Joins)
	}
	pe := cfg.Costs.PollEffortFor(cfg.AUSize, w.specs[0].Blocks())
	for _, p := range w.proofs {
		if c := p.Cost(); c != pe.Intro && c != pe.Remainder && c != pe.VoteProof {
			t.Errorf("a proof of %v is outside the world's poll budget %+v", c, pe)
		}
	}
}
