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

// AdmissionFlood is the effortless application-level adversary of §7.3: it
// sends cheap garbage poll invitations from ever-fresh, unknown identities
// to victims, so that the one unknown/in-debt invitation a victim admits per
// refractory period is always the adversary's — continuously re-triggering
// the refractory period and locking loyal unknown or in-debt pollers out.
//
// The garbage invitations carry no valid introductory effort: a victim that
// admits one pays only session setup, a schedule check and a failed
// verification, then penalizes and forgets the identity — which the
// adversary never reuses.
type AdmissionFlood struct {
	Pulse
	// VolleyLimit bounds invitations per volley (default 40); at the
	// default drop probability of 0.90 a volley of 40 is admitted with ~99%
	// probability.
	VolleyLimit int

	// Run state, zero until Install: an uninstalled AdmissionFlood is
	// exactly its parameters.
	volley       int
	nextIdentity ids.PeerID
	pollSeq      uint64
}

// Name implements Adversary.
func (a *AdmissionFlood) Name() string {
	return fmt.Sprintf("admission-flood(cov=%.0f%%,dur=%v)", a.Coverage*100, a.Duration)
}

// sourceNode is the adversary cluster's network attachment point.
const sourceNode = ids.MinionBase

// Install implements Adversary.
func (a *AdmissionFlood) Install(w *world.World) {
	a.volley = a.VolleyLimit
	if a.volley <= 0 {
		a.volley = 40
	}
	a.nextIdentity = ids.MinionBase + 1
	rnd := w.Root.Child("adversary/admissionflood")
	w.Net.AddNode(sourceNode, netsim.Link{Bandwidth: netsim.FastEth, Latency: sim.Millisecond},
		func(from ids.PeerID, payload any, size int) {
			// Replies (refusals) to garbage invitations are ignored.
		})

	refractory := w.Cfg.Protocol.Refractory
	epoch := 0
	a.forEachPulse(w, rnd,
		func(victims []int) {
			epoch++
			myEpoch := epoch
			for _, vi := range victims {
				victim := w.Peers[vi]
				for _, au := range victim.AUs() {
					a.floodLoop(w, rnd, victim.ID(), au, refractory, func() bool { return epoch == myEpoch })
				}
			}
		},
		func(victims []int) {
			epoch++ // invalidates the pulse's flood loops
		})
}

// floodLoop sends one garbage volley per refractory period to a (victim,
// AU) pair while active() holds.
func (a *AdmissionFlood) floodLoop(w *world.World, rnd interface{ Float64() float64 }, victim ids.PeerID, au content.AUID, refractory sim.Duration, active func() bool) {
	var tick func()
	tick = func() {
		if !active() {
			return
		}
		a.sendVolley(w, victim, au)
		// Re-arm just after the refractory period the admitted invitation
		// triggered, with jitter to avoid synchronizing volleys.
		gap := sim.Duration(float64(refractory) * (1.02 + 0.1*rnd.Float64()))
		w.Engine.After(gap, tick)
	}
	// First volley at a random phase within one refractory period.
	w.Engine.After(sim.Duration(float64(refractory)*rnd.Float64()), tick)
}

// sendVolley dispatches one burst of garbage invitations from fresh
// identities. Generating garbage is effortless: nothing is charged to the
// adversary's ledger.
func (a *AdmissionFlood) sendVolley(w *world.World, victim ids.PeerID, au content.AUID) {
	a.pollSeq++
	first := a.nextIdentity
	a.nextIdentity += ids.PeerID(a.volley)
	now := w.Engine.Now()
	burst := w.NewBurst(&world.BurstPayload{
		First: first,
		Count: a.volley,
		Template: protocol.Msg{
			Type:         protocol.MsgPoll,
			AU:           au,
			PollID:       a.pollSeq,
			VoteBy:       now.Add(w.Cfg.Protocol.VoteWindow),
			PollDeadline: now.Add(w.Cfg.Protocol.PollInterval),
			// No effort proof: verification at the victim fails cheaply.
		},
	})
	w.Net.Send(sourceNode, victim, burst, burst.BurstWireSize())
}
