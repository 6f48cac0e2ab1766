// Package adversary implements the paper's attack strategies against a
// simulated LOCKSS population:
//
//   - PipeStoppage (§7.2): network-level suppression of all communication
//     for a coverage fraction of the population, in repeated pulses of a
//     given duration separated by a recuperation period.
//   - AdmissionFlood (§7.3): cheap garbage poll invitations from unknown
//     identities, continuously triggering victims' refractory periods.
//   - BruteForce (§7.4): effortful invitations with valid introductory
//     proofs from in-debt identities, defecting at a chosen protocol stage
//     (INTRO, REMAINING or NONE).
//
// The adversary is conservatively modeled per §6.2: a cluster outside the
// loyal network, with as many addresses and as much compute as needed, total
// information awareness (it can inspect loyal schedules and reputation
// state), and magically incorruptible AU copies. Loyal peers never invite
// minions into polls; minions only invite loyal peers.
package adversary

import (
	"lockss/internal/prng"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// Adversary is an attack strategy installable on a world before Run.
type Adversary interface {
	// Install registers the adversary's nodes and schedules its behavior.
	Install(w *world.World)
	// Name describes the strategy for reports.
	Name() string
}

// Pulse describes the repeated attack window shared by all attrition
// adversaries in the paper: attack for Duration, recuperate for
// Recuperation, repeat until the horizon, re-selecting victims each pulse.
type Pulse struct {
	// Coverage is the fraction of the loyal population attacked per pulse.
	Coverage float64
	// Duration is the attack window length.
	Duration sim.Duration
	// Recuperation separates pulses (paper: 30 days).
	Recuperation sim.Duration
}

// victims samples ceil(coverage*N) distinct peer indices.
func (p Pulse) victims(rnd *prng.Source, n int) []int {
	k := int(p.Coverage*float64(n) + 0.999999)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	return rnd.Sample(n, k)
}

// forEachPulse drives the pulse schedule: onStart receives the victim set,
// onEnd fires at the end of each attack window.
func (p Pulse) forEachPulse(w *world.World, rnd *prng.Source, onStart func([]int), onEnd func([]int)) {
	if p.Duration <= 0 || p.Coverage <= 0 {
		return
	}
	var start func()
	start = func() {
		vs := p.victims(rnd, len(w.Peers))
		onStart(vs)
		w.Engine.After(p.Duration, func() {
			onEnd(vs)
			rec := p.Recuperation
			if rec <= 0 {
				rec = 30 * sim.Day
			}
			w.Engine.After(rec, start)
		})
	}
	start()
}
