package protocol

import (
	"testing"
	"unsafe"

	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/sim"
)

// TestPerInviteeRecordSizes pins the two records a poll and a vote keep per
// remote peer: the solicitation the timer sweep streams through, and the
// voter session, which must stay within the 128-byte size class.
func TestPerInviteeRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(solicitation{}); n > 32 {
		t.Errorf("solicitation is %d B, want at most 32", n)
	}
	if n := unsafe.Sizeof(voterSession{}); n > 128 {
		t.Errorf("voterSession is %d B, want at most 128", n)
	}
}

// ballotHarness is a poller whose inner circle refuses, stays silent,
// accepts and never votes, or votes, so a poll holds invitees in every
// state, poll after poll.
func ballotHarness(t *testing.T) (*pollerHarness, Config) {
	cfg := pollerConfig()
	cfg.InnerCircle = 7
	voters := []ids.PeerID{2, 3, 4, 5, 6, 7, 8}
	h := newPollerHarness(t, cfg, voters)
	h.p.SetFriends(voters) // refill the reference list after each success
	h.voters[2].refuse = true
	h.voters[3].silent = true
	h.voters[4].noVote = true
	return h, cfg
}

// TestOnlyAcceptedInviteesHoldBallots: at every step of three poll intervals, an
// invitee holds a ballot exactly when it has accepted, the ballots are the
// poll's, one each, and a ballot's nonce is the one its PollProof carried.
func TestOnlyAcceptedInviteesHoldBallots(t *testing.T) {
	h, cfg := ballotHarness(t)
	st := h.p.au(h.au)
	h.p.Start()
	accepted := 0
	h.pumpUntil(3*sim.Duration(cfg.PollInterval), func() bool {
		poll := st.poll
		if poll == nil {
			return false
		}
		owner := make([]int, len(poll.ballots))
		for i := range poll.sols {
			sol := &poll.sols[i]
			switch sol.state {
			case solUnsent, solAwaitAck, solRetryWait:
				if sol.ballot != noBallot {
					t.Fatalf("invitee %v (state %d) has not accepted but holds ballot %d", sol.peer, sol.state, sol.ballot)
				}
				continue
			case solAwaitProofSlot, solAwaitVote, solGotVote:
				if sol.ballot == noBallot {
					t.Fatalf("invitee %v (state %d) accepted but holds no ballot", sol.peer, sol.state)
				}
			}
			if sol.ballot == noBallot {
				continue
			}
			if int(sol.ballot) >= len(poll.ballots) || owner[sol.ballot] != 0 {
				t.Fatalf("invitee %v holds ballot %d of %d, owned by %d", sol.peer, sol.ballot, len(poll.ballots), owner[min(int(sol.ballot), len(owner)-1)])
			}
			owner[sol.ballot] = i + 1
			b := &poll.ballots[sol.ballot]
			if v := h.voters[sol.peer]; (sol.state == solAwaitVote || sol.state == solGotVote) && !v.noVote && *v.votedNonce != b.nonce {
				t.Fatalf("invitee %v's ballot nonce differs from its PollProof's", sol.peer)
			}
			if (sol.state == solGotVote) != (b.vote != nil) {
				t.Fatalf("invitee %v (state %d): ballot vote %v", sol.peer, sol.state, b.vote)
			}
		}
		for j, o := range owner {
			if o == 0 {
				t.Fatalf("ballot %d of %d belongs to no invitee", j, len(poll.ballots))
			}
		}
		accepted = max(accepted, len(poll.ballots))
		return false
	})
	if s := h.p.Stats(); s.PollsConcluded() < 2 || s.VotesReceived == 0 || accepted == 0 {
		t.Fatalf("the polls never got going: %+v, %d accepted", s, accepted)
	}
}

// TestReleasedPollHoldsNoBallots: a concluded poll's record is recycled
// with its ballots array, and every ballot it held is zeroed, so no vote or
// effort proof outlives its poll in the freelist.
func TestReleasedPollHoldsNoBallots(t *testing.T) {
	h, cfg := ballotHarness(t)
	st := h.p.au(h.au)
	h.p.Start()
	var (
		rec      *pollState // the poll record being watched
		recID    uint64     // the poll it holds
		held     int        // how many ballots it held at the last step
		votes    int        // how many of them held a vote
		released int        // watched polls released with votes
	)
	h.pumpUntil(5*sim.Duration(cfg.PollInterval), func() bool {
		if rec != nil && (st.poll != rec || rec.id != recID) {
			if cap(rec.ballots) < held {
				t.Fatalf("released poll kept %d ballots of capacity, held %d", cap(rec.ballots), held)
			}
			for j, b := range rec.ballots[:held] {
				if b.vote != nil || b.voteProof != nil || b.nonce != (Nonce{}) || b.receipt != (effort.Receipt{}) {
					t.Fatalf("released poll's ballot %d of %d still holds %+v", j, held, b)
				}
			}
			if votes > 0 {
				released++
			}
			rec = nil
		}
		if rec == nil && st.poll != nil {
			rec, recID = st.poll, st.poll.id
		}
		if rec != nil {
			held, votes = len(rec.ballots), 0
			for _, b := range rec.ballots {
				if b.vote != nil {
					votes++
				}
			}
		}
		return released == 2
	})
	if released < 2 {
		t.Fatalf("saw %d polls with votes released, want 2", released)
	}
}
