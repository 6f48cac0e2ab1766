package adversary

import (
	"fmt"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/netsim"
	"lockss/internal/protocol"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// VoteFlood is the vote-flood adversary of §5.1: it "seeks to supply as
// many bogus votes as possible hoping to exhaust loyal pollers' resources
// in useless but expensive proofs of invalidity." The defense is
// structural: votes can only be supplied in response to an invitation by
// the putative victim, and pollers solicit at a fixed rate — unsolicited
// votes are ignored before any expensive processing. This adversary exists
// to demonstrate that the defense holds: its floods must measurably change
// nothing.
type VoteFlood struct {
	Pulse
	// VotesPerDay is the flood rate per victim per AU (default 48).
	VotesPerDay float64

	// pollSeq numbers the bogus votes sent, and so counts them.
	pollSeq uint64
}

// Name implements Adversary.
func (a *VoteFlood) Name() string {
	return fmt.Sprintf("vote-flood(cov=%.0f%%,rate=%.0f/day)", a.Coverage*100, a.VotesPerDay)
}

// voteFloodSource is the flooder's network attachment.
const voteFloodSource = ids.MinionBase + 500000

// Install implements Adversary.
func (a *VoteFlood) Install(w *world.World) {
	rate := a.VotesPerDay
	if rate <= 0 {
		rate = 48
	}
	rnd := w.Root.Child("adversary/voteflood")
	w.Net.AddNode(voteFloodSource, netsim.Link{Bandwidth: netsim.FastEth, Latency: sim.Millisecond},
		func(from ids.PeerID, payload any, size int) {})

	specs := make(map[content.AUID]content.AUSpec)
	for _, s := range w.Specs() {
		specs[s.ID] = s
	}
	epoch := 0
	a.forEachPulse(w, rnd,
		func(victims []int) {
			epoch++
			myEpoch := epoch
			gap := sim.Duration(float64(sim.Day) / rate)
			for _, vi := range victims {
				victim := w.Peers[vi]
				for _, au := range victim.AUs() {
					au := au
					vID := victim.ID()
					var tick func()
					tick = func() {
						if epoch != myEpoch {
							return
						}
						a.sendBogusVote(w, vID, au, specs[au])
						w.Engine.After(sim.Duration(float64(gap)*(0.5+rnd.Float64())), tick)
					}
					w.Engine.After(sim.Duration(float64(gap)*rnd.Float64()), tick)
				}
			}
		},
		func(victims []int) { epoch++ })
}

// sendBogusVote emits one unsolicited Vote claiming a poll that the victim
// never called.
func (a *VoteFlood) sendBogusVote(w *world.World, victim ids.PeerID, au content.AUID, spec content.AUSpec) {
	a.pollSeq++
	m := w.NewMsg(&protocol.Msg{
		Type:   protocol.MsgVote,
		AU:     au,
		PollID: a.pollSeq | 1<<62, // never a real poll ID
		Poller: victim,            // pretends the victim solicited it
		Voter:  voteFloodSource,
		Vote:   protocol.SimVote{NumBlocks: spec.Blocks()},
	})
	w.Net.Send(voteFloodSource, victim, m, m.WireSize())
}
