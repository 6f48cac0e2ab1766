package adversary

import (
	"fmt"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/netsim"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// Defection identifies where the brute-force adversary abandons the
// protocol (Table 1 of the paper).
type Defection uint8

const (
	// DefectIntro: provide the introductory effort in Poll, then never send
	// the PollProof (a reservation attack).
	DefectIntro Defection = iota
	// DefectRemaining: provide the remaining effort in PollProof, then
	// never send an EvaluationReceipt (a wasteful attack).
	DefectRemaining
	// DefectNone: participate fully, including a valid receipt.
	DefectNone
)

func (d Defection) String() string {
	switch d {
	case DefectIntro:
		return "INTRO"
	case DefectRemaining:
		return "REMAINING"
	case DefectNone:
		return "NONE"
	}
	return "invalid"
}

// BruteForce is the effortful application-level adversary of §7.4: it
// continuously sends poll invitations with valid introductory efforts from
// a pool of in-debt identities (conservatively initialized to a debt grade
// at every victim), getting one invitation admitted per victim per
// refractory period, and then defects at the configured stage. An insider
// oracle lets it skip volleys that a victim's schedule would refuse anyway,
// sparing it wasted introductory efforts.
type BruteForce struct {
	// Defection selects the strategy row of Table 1.
	Defection Defection
	// Minions is the in-debt identity pool size (default 40).
	Minions int
	// VolleyLimit bounds invitations per volley (default 25; expected tries
	// to admission at a 0.80 drop rate is 5).
	VolleyLimit int
	// Coverage is the attacked fraction of the population (default 1.0;
	// Table 1: all).
	Coverage float64
}

// bruteRun is one installed brute-force attack: the resolved parameters and
// the world it runs in.
type bruteRun struct {
	w         *world.World
	defection Defection
	volley    int
	efforts   map[content.AUID]auEffort
	pool      []ids.PeerID
	pollSeq   uint64
	// nonce goes in every PollProof. It is drawn from a child of the
	// world's root source, which nothing advances, so one draw at Install
	// is the draw every reply would make.
	nonce protocol.Nonce
	// ctx backs the receipt context of a full participation, consumed at
	// once.
	ctx []byte
}

// auEffort is one AU's poll effort, with the symbolic introductory and
// remainder proofs the adversary attaches, boxed once.
type auEffort struct {
	effort.PollEffort
	intro, remainder effort.Proof
}

// Name implements Adversary.
func (a *BruteForce) Name() string {
	return fmt.Sprintf("brute-force(%v)", a.Defection)
}

// Install implements Adversary. Defaults for unset parameters go into the
// run state; the exported fields keep what the caller set.
func (a *BruteForce) Install(w *world.World) {
	minions, volley, coverage := a.Minions, a.VolleyLimit, a.Coverage
	if minions <= 0 {
		minions = 40
	}
	if volley <= 0 {
		volley = 25
	}
	if coverage <= 0 {
		coverage = 1.0
	}
	r := &bruteRun{w: w, defection: a.Defection, volley: volley, efforts: make(map[content.AUID]auEffort)}
	costs := effort.DefaultCostModel() // not w.Cfg.CostModel(), which victims verify against: ROADMAP.md item 4(e)
	for _, spec := range w.Specs() {
		pe := costs.PollEffortFor(spec.Size, spec.Blocks())
		r.efforts[spec.ID] = auEffort{
			PollEffort: pe,
			intro:      effort.SimProof{Effort: pe.Intro, Genuine: true},
			remainder:  effort.SimProof{Effort: pe.Remainder, Genuine: true},
		}
	}
	nr := w.Root.Child("adversary/nonce")
	for i := 0; i < len(r.nonce); i += 8 {
		v := nr.Uint64()
		for j := 0; j < 8 && i+j < len(r.nonce); j++ {
			r.nonce[i+j] = byte(v >> (8 * j))
		}
	}

	// Register the minion pool; every minion can receive replies.
	r.pool = make([]ids.PeerID, minions)
	for i := range r.pool {
		id := ids.MinionBase + 1000 + ids.PeerID(i)
		r.pool[i] = id
		w.Net.AddNode(id, netsim.Link{Bandwidth: netsim.FastEth, Latency: sim.Millisecond},
			func(from ids.PeerID, payload any, size int) {
				if m, ok := payload.(*protocol.Msg); ok {
					r.handleReply(id, from, m)
				}
			})
	}

	// Conservative initialization: all minions are in debt at all victims.
	rnd := w.Root.Child("adversary/bruteforce")
	n := int(coverage*float64(len(w.Peers)) + 0.999999)
	if n > len(w.Peers) {
		n = len(w.Peers)
	}
	for _, vi := range rnd.Sample(len(w.Peers), n) {
		victim := w.Peers[vi]
		for _, au := range victim.AUs() {
			for _, m := range r.pool {
				victim.SeedGrade(au, m, reputation.Debt)
			}
			r.attackLoop(victim, au, rnd.ChildN("victim", vi))
		}
	}
}

// attackLoop sends one effortful volley per (victim, AU) refractory period,
// consulting the oracle first.
func (a *bruteRun) attackLoop(victim *protocol.Peer, au content.AUID, rnd interface{ Float64() float64 }) {
	w := a.w
	refractory := w.Cfg.Protocol.Refractory
	var tick func()
	tick = func() {
		delay := sim.Duration(float64(refractory) * (1.02 + 0.1*rnd.Float64()))
		if a.oracleSaysSend(victim, au) {
			a.sendVolley(victim.ID(), au)
		} else {
			// Nothing schedulable at the victim: check back sooner, the
			// oracle costs the adversary nothing.
			delay = refractory / 4
		}
		w.Engine.After(delay, tick)
	}
	w.Engine.After(sim.Duration(float64(refractory)*rnd.Float64()), tick)
}

// oracleSaysSend uses the adversary's insider information: skip the volley
// if the victim is still refractory (it would be auto-rejected) or its
// schedule cannot accommodate a vote (it would refuse Busy), either of
// which would waste introductory efforts.
func (a *bruteRun) oracleSaysSend(victim *protocol.Peer, au content.AUID) bool {
	now := a.w.Engine.Now()
	rep := victim.Reputation(au)
	if rep == nil || rep.InRefractory(now) {
		return false
	}
	pe := a.efforts[au]
	cfg := a.w.Cfg.Protocol
	voteDur := (pe.VoteHash + pe.VoteProof).Duration()
	_, ok := victim.Schedule().FindSlot(now.Add(cfg.ProofTimeout), voteDur, now.Add(cfg.VoteWindow))
	return ok
}

// sendVolley emits one burst of effortful invitations from the in-debt
// pool, paying one introductory effort per invitation actually sent.
func (a *bruteRun) sendVolley(victim ids.PeerID, au content.AUID) {
	a.pollSeq++
	now := a.w.Engine.Now()
	cfg := a.w.Cfg.Protocol
	burst := a.w.NewBurst(&world.BurstPayload{
		Pool:  a.pool,
		Count: a.volley,
		Template: protocol.Msg{
			Type:         protocol.MsgPoll,
			AU:           au,
			PollID:       a.pollSeq << 8, // distinct per volley
			VoteBy:       now.Add(cfg.VoteWindow),
			PollDeadline: now.Add(cfg.PollInterval),
		},
		Ledger: a.w.AdversaryLedger,
	})
	// With effort balancing disabled (ablation), invitations need no proof
	// and the attack becomes effortless for the adversary.
	if cfg.EffortBalancing {
		pe := a.efforts[au]
		burst.Proof, burst.ProofCost = pe.intro, pe.Intro
	}
	a.w.Net.Send(sourceNodeFor(a.pool[0]), victim, burst, burst.BurstWireSize())
}

// sourceNodeFor picks the network attachment for a burst: the first pool
// minion doubles as the cluster's uplink.
func sourceNodeFor(first ids.PeerID) ids.PeerID { return first }

// handleReply reacts to victim responses according to the defection
// strategy.
func (a *bruteRun) handleReply(minion ids.PeerID, victim ids.PeerID, m *protocol.Msg) {
	switch m.Type {
	case protocol.MsgPollAck:
		if !m.Accept || a.defection == DefectIntro {
			return // INTRO: desert after the introductory effort
		}
		// Supply the remaining effort and a nonce.
		pe := a.efforts[m.AU]
		reply := protocol.Msg{
			Type:   protocol.MsgPollProof,
			AU:     m.AU,
			PollID: m.PollID,
			Poller: minion,
			Voter:  victim,
			Nonce:  a.nonce,
		}
		if a.w.Cfg.Protocol.EffortBalancing {
			reply.Proof = pe.remainder
			a.w.ChargeAdversary(effort.KindAttackRemainder, pe.Remainder)
		}
		a.w.Net.Send(minion, victim, a.w.NewMsg(&reply), reply.WireSize())
	case protocol.MsgVote:
		if a.defection != DefectNone {
			return // REMAINING: desert after the vote arrives
		}
		// Full participation: evaluate the vote (the adversary's copy is
		// magically correct, but evaluation effort is still effort) and
		// return a valid receipt.
		pe := a.efforts[m.AU]
		a.w.ChargeAdversary(effort.KindAttackEval, pe.EvalHash)
		var receipt effort.Receipt
		if m.Proof != nil {
			a.ctx = protocol.AppendPollContext(a.ctx[:0], minion, victim, m.AU, m.PollID, "vote")
			receipt = effort.SimReceiptFor(a.ctx, m.Proof.Cost())
		}
		a.w.Net.Send(minion, victim, a.w.NewMsg(&protocol.Msg{
			Type:    protocol.MsgEvaluationReceipt,
			AU:      m.AU,
			PollID:  m.PollID,
			Poller:  minion,
			Voter:   victim,
			Receipt: receipt,
		}), 64)
	case protocol.MsgRepairRequest:
		// Frivolous repairs are never requested from minions: victims only
		// request repairs from their own polls' voters, and minions never
		// vote. Ignore defensively.
	}
}
