package protocol

import (
	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/sched"
)

// startEvaluation reserves the evaluation compute slot and arms the run.
// Evaluation compares every received vote, block by block, against the
// poller's own replica, repairing blocks the landslide majority says are
// damaged.
func (p *Peer) startEvaluation(st *auState, poll *pollState) {
	if poll.concluded || poll.evalDone {
		return
	}
	votes := 0
	for i := range poll.sols {
		if poll.sols[i].state == solGotVote {
			votes++
		}
	}
	if votes == 0 {
		p.concludePoll(st, poll, OutcomeInquorate)
		return
	}
	dur := sched.Duration(float64(st.pollEffort.EvalHash.Duration()) * float64(votes))
	grace := sched.Time(float64(p.cfg.PollInterval) * 0.15)
	_, start, ok := p.sch.ReserveSlot(p.env.Now(), dur, poll.deadline+grace, st.evalLabel)
	if !ok {
		// Hopelessly overloaded: the poll cannot be evaluated in time.
		p.concludePoll(st, poll, OutcomeInquorate)
		return
	}
	// The run timer must be tracked on the poll: if the conclude guard fires
	// before the reserved slot completes (possible on short first-poll
	// windows, where deadline+grace can exceed the guard), the recycled poll
	// record must not receive a stale evaluation.
	poll.evalRunTimer = p.env.After(sched.Duration(start-p.env.Now())+dur, func() {
		poll.evalRunTimer = 0
		p.runEvaluation(st, poll)
	})
}

// recomputeDisagreements refreshes every unexcluded vote's first point of
// disagreement against the poller's current content, when blocks before
// from are unchanged since the last refresh. Symbolic replicas compare
// damage snapshots, memoized per generation; every other replica is hashed
// in one pass.
func (p *Peer) recomputeDisagreements(st *auState, poll *pollState, from int) {
	if _, ok := st.replica.(*content.SimReplica); !ok {
		rehashVotes(st.replica, poll.sols, poll.ballots, from)
		return
	}
	for i := range poll.sols {
		sol := &poll.sols[i]
		if sol.state != solGotVote || sol.excluded {
			continue
		}
		v, ok := poll.ballots[sol.ballot].vote.(SimVote)
		if !ok {
			sol.dis = 0 // incomparable representations disagree immediately
			continue
		}
		sol.dis = int32(v.FirstDisagreement(p.ownVoteData(st, nil).(SimVote)))
	}
}

// voteChain is one vote's running hash during an evaluation pass.
type voteChain struct {
	sol   *solicitation
	nonce *Nonce
	want  []content.Hash
	prev  content.Hash
}

// rehashVotes sets each unexcluded vote's dis to the first block at which
// the vote's running hashes differ from r's under the nonce read from the
// solicitation's ballot (-1 if none; 0 for a vote that is not a HashVote),
// reading r once:
// one walk steps every vote's chain under its own nonce and drops a chain at
// its first mismatch, and stops when no chain is left.
//
// Blocks before from must be unchanged since dis was last set. A vote that
// disagreed before from keeps its dis. Any other vote matched our chain up
// to from-1, so its chain restarts at from from its own hash at from-1 —
// after a repair at block b only blocks ≥ b are read again. Within one poll,
// rot that lands before a repaired block during the repair round trip is
// therefore not seen; the next poll finds it, as it finds rot that lands
// after the last pass.
func rehashVotes(r content.Replica, sols []solicitation, ballots []ballot, from int) {
	spec := r.Spec()
	n := spec.Blocks()
	from = min(max(from, 0), n)
	var live []voteChain
	for i := range sols {
		sol := &sols[i]
		if sol.state != solGotVote || sol.excluded || (sol.dis >= 0 && int(sol.dis) < from) {
			continue
		}
		b := &ballots[sol.ballot]
		hv, ok := b.vote.(HashVote)
		if !ok {
			sol.dis = 0 // incomparable representations disagree immediately
			continue
		}
		c := voteChain{sol: sol, nonce: &b.nonce, want: hv.Hashes}
		if from > 0 {
			c.prev = hv.Hashes[from-1]
		}
		live = append(live, c)
	}
	v := content.NewVoteHasher()
	r.WalkBlocks(from, func(i int, payload []byte) bool {
		k := 0
		for _, c := range live {
			switch {
			case i >= len(c.want):
				c.sol.dis = int32(len(c.want)) // a short vote disagrees at its end
			case v.From(c.prev).Step(c.nonce[:], spec.ID, i, payload) != c.want[i]:
				c.sol.dis = int32(i)
			default:
				c.prev = c.want[i]
				live[k] = c
				k++
			}
		}
		live = live[:k]
		return k > 0
	})
	for _, c := range live {
		c.sol.dis = -1
		if len(c.want) > n {
			c.sol.dis = int32(n) // a long vote disagrees at our end
		}
	}
}

// runEvaluation performs the charged comparison work, derives the
// evaluation receipts, and enters the landslide/repair loop.
func (p *Peer) runEvaluation(st *auState, poll *pollState) {
	if poll.concluded || poll.evalDone {
		return
	}
	poll.evalDone = true
	if p.spanObs != nil {
		p.spanObs.TallyStarted(p.id, st.spec.ID, poll.id, p.env.Now())
	}
	for i := range poll.sols {
		sol := &poll.sols[i]
		if sol.state != solGotVote {
			continue
		}
		// Hashing our replica against this vote, and recovering the
		// receipt byproduct from the vote's effort proof.
		p.charge(effort.KindEval, st.pollEffort.EvalHash)
		if b := &poll.ballots[sol.ballot]; p.cfg.EffortBalancing && b.voteProof != nil {
			p.ctxScratch = AppendPollContext(p.ctxScratch[:0], p.id, sol.peer, st.spec.ID, poll.id, "vote")
			if r, ok := p.env.EvalReceipt(p.ctxScratch, b.voteProof); ok {
				b.receipt = r
			}
		}
	}
	p.recomputeDisagreements(st, poll, 0)
	p.evaluationLoop(st, poll)
}

// evaluationLoop processes blocks in disagreement order until the tally is
// clean, a repair round trip is needed (it suspends and resumes on the
// Repair message), or the poll proves inconclusive.
func (p *Peer) evaluationLoop(st *auState, poll *pollState) {
	if poll.concluded {
		return
	}
	for {
		// Find the earliest disagreeing block among unexcluded inner votes.
		block := int32(-1)
		for i := range poll.sols {
			sol := &poll.sols[i]
			if sol.state != solGotVote || sol.excluded || sol.outer || sol.dis < 0 {
				continue
			}
			if block < 0 || sol.dis < block {
				block = sol.dis
			}
		}
		if block < 0 {
			p.finishEvaluation(st, poll)
			return
		}
		var agree, disagree int
		for i := range poll.sols {
			sol := &poll.sols[i]
			if sol.state != solGotVote || sol.excluded || sol.outer {
				continue
			}
			if sol.dis == block {
				disagree++
			} else {
				agree++
			}
		}
		switch {
		case disagree <= p.cfg.MaxDisagree:
			// Landslide agreement: the disagreeing voters' replicas are
			// damaged at this block; their votes leave the running tally.
			for i := range poll.sols {
				sol := &poll.sols[i]
				if sol.state == solGotVote && !sol.excluded && !sol.outer && sol.dis == block {
					sol.excluded = true
				}
			}
			// Outer votes disagreeing here are simply not inserted later;
			// exclude them too so they stop tracking.
			for i := range poll.sols {
				sol := &poll.sols[i]
				if sol.state == solGotVote && !sol.excluded && sol.outer && sol.dis == block {
					sol.excluded = true
				}
			}
		case agree <= p.cfg.MaxDisagree:
			// Landslide disagreement: our replica is damaged at this block.
			p.requestRepair(st, poll, int(block))
			return // resumes in pollerHandleRepair
		default:
			// No landslide either way: inconclusive; raise the alarm.
			p.concludePoll(st, poll, OutcomeInconclusive)
			return
		}
	}
}

// requestRepair asks a random untried voter that disagrees at block (and
// thus holds content the landslide endorses) for the block.
func (p *Peer) requestRepair(st *auState, poll *pollState, block int) {
	if block != poll.repairBlock {
		poll.repairBlock = block
		poll.repairAttempts = 0
		for i := range poll.sols {
			poll.sols[i].tried = false
		}
	}
	candidates := p.idxScratch[:0]
	for i := range poll.sols {
		sol := &poll.sols[i]
		if sol.state == solGotVote && !sol.excluded && !sol.outer && sol.dis == int32(block) && !sol.tried {
			candidates = append(candidates, i)
		}
	}
	p.idxScratch = candidates
	if len(candidates) == 0 || poll.repairAttempts >= p.cfg.MaxRepairAttempts {
		p.concludePoll(st, poll, OutcomeRepairFailed)
		return
	}
	sol := &poll.sols[candidates[p.env.Rand().Intn(len(candidates))]]
	sol.tried = true
	target := sol.peer
	poll.repairAttempts++
	if p.spanObs != nil {
		p.spanObs.RepairRequested(p.id, target, st.spec.ID, poll.id, block, p.env.Now())
	}
	p.send(target, Msg{
		Type:   MsgRepairRequest,
		AU:     st.spec.ID,
		PollID: poll.id,
		Poller: p.id,
		Voter:  target,
		Block:  int32(block),
	})
	poll.repairTimer = p.env.After(p.cfg.RepairTimeout, func() {
		poll.repairTimer = 0
		// Supplier unresponsive: voters owe repairs once committed.
		st.rep.Penalize(p.env.Now(), target)
		p.requestRepair(st, poll, block)
	})
}

// pollerHandleRepair applies a received repair block and resumes whichever
// flow was waiting on it (damage repair loop or frivolous repair).
func (p *Peer) pollerHandleRepair(st *auState, from ids.PeerID, m *Msg) {
	poll := st.poll
	if poll == nil || poll.concluded || m.PollID != poll.id {
		return
	}
	if i := poll.solOf(from); i < 0 || poll.sols[i].state != solGotVote {
		return
	}
	if poll.repairTimer == 0 {
		return // no repair outstanding
	}
	p.stopTimer(&poll.repairTimer)

	// Re-hash the repaired block and re-evaluate.
	p.charge(effort.KindRepair, p.costs.HashCost(st.spec.BlockSize))
	p.stats.RepairsReceived++
	if poll.frivolousDone {
		// Frivolous repair response: content is expected to be identical;
		// applying it is a no-op. Proceed to receipts.
		_ = st.replica.ApplyRepair(int(m.Block), m.RepairData)
		p.sendReceiptsAndConclude(st, poll)
		return
	}
	if err := st.replica.ApplyRepair(int(m.Block), m.RepairData); err == nil {
		p.obs.RepairApplied(p.id, st.spec.ID, poll.id, int(m.Block), p.env.Now())
	}
	// Only the repaired block changed: resume the comparison there.
	p.recomputeDisagreements(st, poll, int(m.Block))
	p.evaluationLoop(st, poll)
}

// finishEvaluation runs after the landslide loop drains: optionally issue a
// frivolous repair (free-riding deterrent), then send receipts and conclude.
func (p *Peer) finishEvaluation(st *auState, poll *pollState) {
	if !poll.frivolousDone && p.cfg.FrivolousRepairProb > 0 &&
		p.env.Rand().Bool(p.cfg.FrivolousRepairProb) {
		poll.frivolousDone = true
		// Pick a fully agreeing inner voter and a random block: its content
		// there provably matches ours, so applying the repair is a no-op.
		candidates := p.candScratch[:0]
		for i := range poll.sols {
			sol := &poll.sols[i]
			if sol.state == solGotVote && !sol.excluded && !sol.outer && sol.dis < 0 {
				candidates = append(candidates, sol.peer)
			}
		}
		p.candScratch = candidates
		if len(candidates) > 0 {
			target := candidates[p.env.Rand().Intn(len(candidates))]
			block := p.env.Rand().Intn(st.spec.Blocks())
			p.send(target, Msg{
				Type:   MsgRepairRequest,
				AU:     st.spec.ID,
				PollID: poll.id,
				Poller: p.id,
				Voter:  target,
				Block:  int32(block),
			})
			poll.repairTimer = p.env.After(p.cfg.RepairTimeout, func() {
				poll.repairTimer = 0
				st.rep.Penalize(p.env.Now(), target)
				p.sendReceiptsAndConclude(st, poll)
			})
			return // resumes in pollerHandleRepair
		}
	}
	poll.frivolousDone = true
	p.sendReceiptsAndConclude(st, poll)
}

// sendReceiptsAndConclude distributes evaluation receipts to every voter
// that supplied a vote, then settles the poll outcome.
func (p *Peer) sendReceiptsAndConclude(st *auState, poll *pollState) {
	if poll.concluded {
		return
	}
	talliedInner := 0
	for i := range poll.sols {
		sol := &poll.sols[i]
		if sol.state != solGotVote {
			continue
		}
		if !sol.outer {
			talliedInner++
		}
		p.send(sol.peer, Msg{
			Type:    MsgEvaluationReceipt,
			AU:      st.spec.ID,
			PollID:  poll.id,
			Poller:  p.id,
			Voter:   sol.peer,
			Receipt: poll.ballots[sol.ballot].receipt,
		})
	}
	if talliedInner < p.cfg.Quorum {
		p.concludePoll(st, poll, OutcomeInquorate)
		return
	}
	p.concludePoll(st, poll, OutcomeSuccess)
}
