package world

import (
	"fmt"

	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sim"
)

// Churn configures dynamic population growth: new loyal peers joining over
// time (the paper's §9: "we need to understand how our defenses against
// attrition work in a more dynamic environment, where new loyal peers
// continually join the system over time").
//
// A joining peer starts cold: it obtains replicas from the publisher, knows
// only its operator-configured friends, and is unknown to everyone else. It
// must work its way into reference lists through the discovery path —
// outer-circle votes, nominations and introductions — against the admission
// control machinery (random drops, refractory periods).
type Churn struct {
	// JoinPerYear is the mean arrival rate of new peers (Poisson).
	JoinPerYear float64
	// MaxJoins caps the number of arrivals.
	MaxJoins int
	// FriendsPerJoiner is how many established peers a newcomer's operator
	// lists as friends (its only warm contacts).
	FriendsPerJoiner int
}

// JoinStats summarizes how newcomers fared.
type JoinStats struct {
	Joined int
	// Integrated counts newcomers that appear in at least one established
	// peer's reference list at the horizon.
	Integrated int
	// NewcomerPollsOK counts successful polls called by newcomers.
	NewcomerPollsOK uint64
	// NewcomerVotes counts votes newcomers supplied (their route to good
	// grades).
	NewcomerVotes uint64
}

// enableChurn schedules Cfg.Churn's peer arrivals, and at the horizon fills
// Joins. New calls it last, after the founders are built.
func (w *World) enableChurn() {
	c, stats := w.Cfg.Churn, &w.Joins
	if c.JoinPerYear <= 0 || c.MaxJoins <= 0 {
		return
	}
	if c.FriendsPerJoiner <= 0 {
		c.FriendsPerJoiner = 5
	}
	rnd := w.Root.Child("churn")
	linkRnd := w.Root.Child("churn/links")
	meanGap := float64(sim.Year) / c.JoinPerYear

	var newcomers []*protocol.Peer
	friendSets := make(map[ids.PeerID]map[ids.PeerID]bool)
	var schedule func(k int)
	schedule = func(k int) {
		if k >= c.MaxJoins {
			return
		}
		gap := sim.Duration(rnd.ExpFloat64(meanGap))
		w.Engine.After(gap, func() {
			id := PeerIDOf(len(w.Peers))
			p, err := w.newPeer(id, w.Root.ChildN("joiner", k), linkRnd)
			if err != nil {
				panic(fmt.Sprintf("world: churn join: %v", err))
			}
			// Friends: a sample of the founding population.
			n := c.FriendsPerJoiner
			if n > w.Cfg.Peers {
				n = w.Cfg.Peers
			}
			var friends []ids.PeerID
			for _, j := range rnd.Sample(w.Cfg.Peers, n) {
				friends = append(friends, PeerIDOf(j))
			}
			p.SetFriends(friends)
			fs := make(map[ids.PeerID]bool, len(friends))
			for _, f := range friends {
				fs[f] = true
			}
			friendSets[id] = fs
			// Friendship is mutual: the operators of both libraries add
			// each other, so the newcomer gets invited into its friends'
			// polls and can earn grades by supplying votes.
			for _, f := range friends {
				fp := w.Peers[int(f)-1]
				fp.AddFriend(id)
				for _, au := range fp.AUs() {
					fp.AddToReferenceList(au, id)
					fp.SeedGrade(au, id, reputation.Even)
				}
			}
			// A newcomer's initial reference list is its friends: it has
			// no history with anyone else.
			if err := w.addReplicas(p, func() []ids.PeerID { return friends }); err != nil {
				panic(fmt.Sprintf("world: churn AddAU: %v", err))
			}
			// The newcomer trusts its friends from day one, too.
			for _, spec := range w.specs {
				for _, f := range friends {
					p.SeedGrade(spec.ID, f, reputation.Even)
				}
			}
			w.Peers = append(w.Peers, p)
			newcomers = append(newcomers, p)
			stats.Joined++
			p.Start()
			schedule(k + 1)
		})
	}
	schedule(0)

	// Evaluate integration at the horizon (one tick before Finalize).
	w.Engine.At(sim.Time(w.Cfg.Duration)-1, func() {
		established := w.Peers[:w.Cfg.Peers]
		for _, nc := range newcomers {
			st := nc.Stats()
			stats.NewcomerPollsOK += st.PollsSucceeded
			stats.NewcomerVotes += st.VotesSupplied
			// Integration means spreading beyond the warm start: a
			// non-friend established peer lists the newcomer.
			seen := false
			for _, e := range established {
				if friendSets[nc.ID()][e.ID()] {
					continue
				}
				for _, au := range e.AUs() {
					for _, r := range e.ReferenceList(au) {
						if r == nc.ID() {
							seen = true
						}
					}
				}
				if seen {
					break
				}
			}
			if seen {
				stats.Integrated++
			}
		}
	})
}
