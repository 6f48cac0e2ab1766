package protocol

import (
	"math"
	"slices"

	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/sched"
)

// solicitState tracks one vote solicitation's progress. A state that waits
// on a deadline names the action the poll's solicitation timer runs at the
// solicitation's due instant.
type solicitState uint8

const (
	solUnsent         solicitState = iota // send the invitation
	solAwaitAck                           // ack timeout: retry
	solAwaitProofSlot                     // remainder effort generated: send PollProof
	solAwaitVote                          // vote timeout: fail and penalize
	solGotVote
	solRetryWait // refused or timed out: send the invitation again
	solFailed
)

// noDue is the due instant of a solicitation with no action pending.
const noDue = sched.Time(math.MaxInt64)

// solicitation is the poller's record of one invitee. It lives by value in
// pollState.sols and is addressed by index: the poll's solicitation timer
// sweeps the slice for due entries and message handlers find one by peer,
// so nothing holds a pointer into the slice across a callback. It holds only
// what the sweep and the handlers read; what only an invitee that accepted
// needs is in its ballot.
type solicitation struct {
	peer     ids.PeerID
	dis      int32 // first disagreement vs poller's current content; -1 if none
	attempts uint16
	state    solicitState
	outer    bool
	excluded bool
	tried    bool       // tried as a repair source for the current block
	ballot   int16      // index into pollState.ballots; noBallot until accepted
	sentAt   sched.Time // when the latest invitation was sent
	due      sched.Time // when the state's action runs; noDue if none
}

// noBallot is the ballot index of an invitee that has not accepted.
const noBallot = -1

// ballot is the part of an invitee's record that only an invitee that
// accepted needs: the nonce its vote is hashed under, the vote and its proof,
// and the receipt the evaluation derives from that proof. It lives by value
// in pollState.ballots, addressed by solicitation.ballot.
type ballot struct {
	nonce     Nonce
	receipt   effort.Receipt
	vote      VoteData
	voteProof effort.Proof
}

// pollState is the poller side of one poll.
type pollState struct {
	id       uint64
	started  sched.Time
	deadline sched.Time
	// sols holds the invitees in invitation order, the inner circle first.
	// It is allocated at InnerCircle+OuterCircle, all a poll can invite.
	sols []solicitation
	// ballots holds the accepted invitees' ballots in acceptance order. It
	// is allocated at Quorum on the record's first acceptance and doubles up
	// to InnerCircle+OuterCircle.
	ballots   []ballot
	noms      peerSet // outer-circle candidate pool
	outerSent bool
	evalDone  bool
	concluded bool

	// Repair state during evaluation.
	repairBlock    int
	repairAttempts int
	repairTimer    TimerID
	frivolousDone  bool

	// Poll-lifecycle timers, cancelled at conclusion. evalTimer launches
	// startEvaluation; evalRunTimer fires when the reserved evaluation slot
	// completes.
	outerTimer   TimerID
	evalTimer    TimerID
	evalRunTimer TimerID
	guardTimer   TimerID

	// solTimer is the poll's one solicitation timer, pending for solAt, the
	// earliest due in sols. Its callback solFire is bound when the record is
	// first allocated and runs on the poll's AU st.
	solTimer TimerID
	solAt    sched.Time
	st       *auState
	solFire  func()
}

// newPollState draws a zeroed poll record from the freelist, keeping its
// emptied slices and its timer callback.
func (p *Peer) newPollState() *pollState {
	if k := len(p.freePolls); k > 0 {
		poll := p.freePolls[k-1]
		p.freePolls[k-1] = nil
		p.freePolls = p.freePolls[:k-1]
		return poll
	}
	poll := &pollState{sols: make([]solicitation, 0, p.cfg.InnerCircle+p.cfg.OuterCircle)}
	poll.solFire = func() { p.solicitationTimer(poll) }
	return poll
}

// releasePoll recycles a concluded poll. All the poll's timers were cancelled
// at conclusion, so no callback can still reach the recycled record.
func (p *Peer) releasePoll(poll *pollState) {
	clear(poll.ballots) // drop the votes and proofs they reference
	*poll = pollState{sols: poll.sols[:0], ballots: poll.ballots[:0], noms: poll.noms[:0], solFire: poll.solFire}
	p.freePolls = append(p.freePolls, poll)
}

// solicit appends an invitee whose invitation falls due at due.
func (poll *pollState) solicit(peer ids.PeerID, outer bool, due sched.Time) {
	poll.sols = append(poll.sols, solicitation{peer: peer, outer: outer, dis: -1, ballot: noBallot, due: due})
}

// solOf returns the index of the poll's solicitation of peer, or -1.
func (poll *pollState) solOf(peer ids.PeerID) int {
	for i := range poll.sols {
		if poll.sols[i].peer == peer {
			return i
		}
	}
	return -1
}

// startPoll begins a new poll on the AU, to conclude at deadline. A
// draining peer calls no new polls: the AU stays idle (st.poll == nil) and
// ActivePolls eventually reaches zero.
func (p *Peer) startPoll(st *auState, deadline sched.Time) {
	if p.draining {
		return
	}
	p.gcSchedule()
	p.stats.PollsStarted++
	p.pollSeq++
	poll := p.newPollState()
	poll.id = uint64(p.id)<<32 | uint64(p.pollSeq)
	poll.started = p.env.Now()
	poll.deadline = deadline
	poll.st = st
	st.poll = poll
	window := sched.Duration(deadline - poll.started)
	if window <= 0 {
		window = p.cfg.PollInterval
		poll.deadline = poll.started + sched.Time(window)
	}
	if p.spanObs != nil {
		p.spanObs.PollStarted(p.id, st.spec.ID, poll.id, poll.started)
	}

	// Invite the inner circle at desynchronized instants across the
	// solicitation phase. With desynchronization disabled (ablation), all
	// invitations fire at once and votes are due within a single narrow
	// window, recreating the synchronous-rendezvous weakness of §5.2.
	// Invitees are consumed within this call, so they draw into scratch.
	invitees := p.sampleRefListInto(p.drawScratch, st, p.cfg.InnerCircle, ids.NoPeer)
	p.drawScratch = invitees
	solicitSpan := float64(window) * p.cfg.SolicitFrac
	for _, v := range invitees {
		var at sched.Duration
		if p.cfg.Desynchronize {
			at = sched.Duration(p.env.Rand().Float64() * solicitSpan)
		}
		poll.solicit(v, false, poll.started+sched.Time(at))
	}
	p.armSolicitations(poll)

	// Outer-circle launch.
	outerDelay := sched.Duration(float64(window) * p.cfg.OuterStartFrac)
	poll.outerTimer = p.env.After(outerDelay, func() { p.launchOuterCircle(st, poll) })

	// Evaluation launch.
	evalDelay := sched.Duration(float64(window) * p.cfg.EvalFrac)
	poll.evalTimer = p.env.After(evalDelay, func() { p.startEvaluation(st, poll) })

	// Conclude guard: whatever happens, the poll ends and the next begins.
	grace := sched.Duration(float64(window) * 0.25)
	poll.guardTimer = p.env.After(sched.Duration(poll.deadline-poll.started)+grace, func() {
		p.concludePoll(st, poll, OutcomeInquorate)
	})
}

// stopTimer cancels a pending env timer and zeroes it. Safe on the zero ID
// and on timers that already fired.
func (p *Peer) stopTimer(t *TimerID) {
	if *t != 0 {
		p.env.Cancel(*t)
		*t = 0
	}
}

// armSolicitations keeps the poll's solicitation timer pending for the
// earliest due in sols, and re-arms it only when that instant changes, so the
// timer never fires with nothing due.
func (p *Peer) armSolicitations(poll *pollState) {
	next := noDue
	for i := range poll.sols {
		next = min(next, poll.sols[i].due)
	}
	if poll.solTimer != 0 && next == poll.solAt {
		return
	}
	p.stopTimer(&poll.solTimer)
	if next != noDue {
		poll.solAt = next
		poll.solTimer = p.env.After(sched.Duration(next-p.env.Now()), poll.solFire)
	}
}

// solicitationTimer runs the action of every solicitation due by the instant
// the timer was armed for, in invitation order, then re-arms once. An action
// that falls due during the sweep runs in a later event, as a zero-delay
// timer would.
func (p *Peer) solicitationTimer(poll *pollState) {
	poll.solTimer = 0
	st, now := poll.st, max(p.env.Now(), poll.solAt)
	for i := range poll.sols {
		sol := &poll.sols[i]
		if sol.due > now {
			continue
		}
		sol.due = noDue
		switch sol.state {
		case solUnsent, solRetryWait:
			p.sendPollInvitation(st, poll, i)
		case solAwaitAck:
			// Silent drops (admission control, pipe stoppage) look
			// identical to losses; retry later in the solicitation phase.
			p.stats.AcksTimedOut++
			p.retrySolicitation(poll, i)
		case solAwaitProofSlot:
			p.sendPollProof(st, poll, i)
		case solAwaitVote:
			// The voter committed; failure to deliver is penalized.
			sol.state = solFailed
			p.stats.VotesTimedOut++
			st.rep.Penalize(p.env.Now(), sol.peer)
		}
	}
	p.armSolicitations(poll)
}

// voteBy is the deadline of a vote solicited at sent. With desynchronization
// disabled (§5.2 ablation), all votes must materialize within a narrow
// common window, so the poll needs a quorum of voters simultaneously free.
func (p *Peer) voteBy(poll *pollState, sent sched.Time) sched.Time {
	window := p.cfg.VoteWindow
	if !p.cfg.Desynchronize {
		window /= 8
	}
	return min(sent+sched.Time(window), poll.deadline)
}

// sendPollInvitation generates the introductory effort and sends Poll.
func (p *Peer) sendPollInvitation(st *auState, poll *pollState, i int) {
	sol := &poll.sols[i]
	sol.attempts++
	now := p.env.Now()
	m := Msg{
		Type:         MsgPoll,
		AU:           st.spec.ID,
		PollID:       poll.id,
		Poller:       p.id,
		Voter:        sol.peer,
		VoteBy:       p.voteBy(poll, now),
		PollDeadline: poll.deadline,
	}
	p.charge(effort.KindSession, p.costs.SessionSetup)
	if p.cfg.EffortBalancing {
		intro := st.pollEffort.Intro
		m.Proof = p.env.MakeProof(p.msgContext(&m, "intro"), intro, nil)
		p.charge(effort.KindIntroGen, intro)
	}
	sol.state = solAwaitAck
	sol.sentAt = now
	sol.due = now + sched.Time(p.cfg.AckTimeout)
	if p.spanObs != nil {
		p.spanObs.VoteSolicited(p.id, sol.peer, st.spec.ID, poll.id, now)
	}
	p.send(sol.peer, m)
}

// retrySolicitation reschedules a reluctant or unresponsive invitee at a
// random later instant within the retry window, or gives up.
func (p *Peer) retrySolicitation(poll *pollState, i int) {
	sol := &poll.sols[i]
	window := sched.Duration(poll.deadline - poll.started)
	retryBy := poll.started + sched.Time(float64(window)*p.cfg.RetryFrac)
	now := p.env.Now()
	if int(sol.attempts) >= p.cfg.MaxSolicitAttempts || now >= retryBy {
		sol.state = solFailed
		return
	}
	sol.state = solRetryWait
	sol.due = now + sched.Time(p.env.Rand().Float64()*float64(retryBy-now))
}

// pollerHandleAck processes a PollAck.
func (p *Peer) pollerHandleAck(st *auState, from ids.PeerID, m *Msg) {
	poll := st.poll
	if poll == nil || poll.concluded || m.PollID != poll.id {
		return
	}
	i := poll.solOf(from)
	if i < 0 || poll.sols[i].state != solAwaitAck {
		return
	}
	defer p.armSolicitations(poll)
	sol := &poll.sols[i]
	sol.due = noDue
	if !m.Accept {
		p.retrySolicitation(poll, i)
		return
	}

	// Acceptance: generate the remaining effort on our own schedule, then
	// send PollProof with the per-voter nonce, drawn into a new ballot.
	sol.state = solAwaitProofSlot
	switch {
	case poll.ballots == nil:
		poll.ballots = make([]ballot, 0, p.cfg.Quorum)
	case len(poll.ballots) == cap(poll.ballots):
		// Double, but never past every invitee a poll can have: append
		// would keep 42 ballots in a recycled record whose polls invite
		// 30 and accept nearly all (ScalePaper).
		grown := make([]ballot, len(poll.ballots), min(2*cap(poll.ballots), p.cfg.InnerCircle+p.cfg.OuterCircle))
		copy(grown, poll.ballots)
		poll.ballots = grown
	}
	sol.ballot = int16(len(poll.ballots))
	poll.ballots = append(poll.ballots, ballot{})
	nonce := &poll.ballots[sol.ballot].nonce
	r := p.env.Rand()
	for k := 0; k < len(nonce); k += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && k+j < len(nonce); j++ {
			nonce[k+j] = byte(v >> (8 * j))
		}
	}

	if !p.cfg.EffortBalancing {
		p.sendPollProof(st, poll, i)
		return
	}
	// Reserve a slot for remainder generation; it is a real compute task.
	genDur := st.pollEffort.Remainder.Duration()
	_, start, ok := p.sch.ReserveSlot(p.env.Now(), genDur, poll.deadline, "remainder-gen")
	if !ok {
		// Too busy to honor the acceptance; abandon this solicitation.
		sol.state = solFailed
		return
	}
	sol.due = start + sched.Time(genDur)
}

// sendPollProof sends invitee i the PollProof carrying the remaining effort
// and its nonce, once the slot reserved for generating that effort is over.
func (p *Peer) sendPollProof(st *auState, poll *pollState, i int) {
	sol := &poll.sols[i]
	pm := Msg{
		Type:   MsgPollProof,
		AU:     st.spec.ID,
		PollID: poll.id,
		Poller: p.id,
		Voter:  sol.peer,
		Nonce:  poll.ballots[sol.ballot].nonce,
	}
	if p.cfg.EffortBalancing {
		rem := st.pollEffort.Remainder
		pm.Proof = p.env.MakeProof(p.msgContext(&pm, "remainder"), rem, nil)
		p.charge(effort.KindRemainderGen, rem)
	}
	sol.state = solAwaitVote
	sol.due = p.voteBy(poll, sol.sentAt) + sched.Time(p.cfg.VoteSlack)
	p.send(sol.peer, pm)
}

// pollerHandleVote processes an incoming Vote.
func (p *Peer) pollerHandleVote(st *auState, from ids.PeerID, m *Msg) {
	poll := st.poll
	if poll == nil || poll.concluded || m.PollID != poll.id {
		return // unsolicited votes are ignored (vote-flood defense)
	}
	i := poll.solOf(from)
	if i < 0 || poll.sols[i].state != solAwaitVote {
		return
	}
	sol := &poll.sols[i]
	sol.due = noDue
	p.armSolicitations(poll)
	if m.Vote == nil || m.Vote.Blocks() != st.spec.Blocks() {
		sol.state = solFailed
		st.rep.Penalize(p.env.Now(), from)
		return
	}
	if p.cfg.EffortBalancing {
		// Verify the vote's effort proof (covers one block hash).
		p.charge(effort.KindVerify, p.costs.VerifyCost(st.pollEffort.VoteProof))
		if !p.env.VerifyProof(p.msgContext(m, "vote"), m.Proof, st.pollEffort.VoteProof) {
			p.stats.BadProofs++
			sol.state = solFailed
			st.rep.Penalize(p.env.Now(), from)
			return
		}
	}
	sol.state = solGotVote
	b := &poll.ballots[sol.ballot]
	b.vote = m.Vote
	b.voteProof = m.Proof
	p.stats.VotesReceived++
	if p.spanObs != nil {
		p.spanObs.VoteReceived(p.id, from, st.spec.ID, poll.id, sol.sentAt, p.env.Now())
	}
	// The voter supplied a valid vote: raise its grade.
	st.rep.Raise(p.env.Now(), from)

	// Discovery: randomly partition the vote's peer identities into
	// outer-circle nominations and introductions (§5.1).
	for _, nom := range m.Nominations {
		if nom == p.id {
			continue
		}
		if p.cfg.Introductions && p.env.Rand().Bool(0.5) {
			st.rep.AddIntroduction(p.env.Now(), from, nom)
		} else if !st.refList.has(nom) {
			poll.noms.add(nom)
		}
	}
}

// launchOuterCircle samples discovered peers and solicits their votes.
func (p *Peer) launchOuterCircle(st *auState, poll *pollState) {
	if poll.concluded || poll.outerSent {
		return
	}
	poll.outerSent = true
	pool := p.poolScratch[:0]
	for _, id := range poll.noms { // sorted, so the draw below is deterministic
		if id != p.id && !st.refList.has(id) && poll.solOf(id) < 0 {
			pool = append(pool, id)
		}
	}
	p.poolScratch = pool
	n := p.cfg.OuterCircle
	var chosen []ids.PeerID
	if n >= len(pool) {
		chosen = pool
	} else {
		idx := p.env.Rand().SampleInto(p.idxScratch, len(pool), n)
		p.idxScratch = idx
		chosen = p.candScratch[:0]
		for _, j := range idx {
			chosen = append(chosen, pool[j])
		}
		p.candScratch = chosen
	}
	window := sched.Duration(poll.deadline - poll.started)
	start := poll.started + sched.Time(float64(window)*p.cfg.OuterStartFrac)
	end := poll.started + sched.Time(float64(window)*p.cfg.OuterEndFrac)
	span := float64(end - start)
	now := p.env.Now()
	for _, v := range chosen {
		var at sched.Duration
		if p.cfg.Desynchronize {
			at = sched.Duration(p.env.Rand().Float64() * span)
		}
		poll.solicit(v, true, max(start+sched.Time(at), now))
	}
	p.armSolicitations(poll)
}

// concludePoll finalizes a poll, updates the reference list on success, and
// immediately schedules the next poll at the fixed autonomous rate.
func (p *Peer) concludePoll(st *auState, poll *pollState, outcome Outcome) {
	if poll.concluded {
		return
	}
	poll.concluded = true
	p.stopTimer(&poll.outerTimer)
	p.stopTimer(&poll.evalTimer)
	p.stopTimer(&poll.evalRunTimer)
	p.stopTimer(&poll.guardTimer)
	p.stopTimer(&poll.solTimer)
	p.stopTimer(&poll.repairTimer)
	now := p.env.Now()
	switch outcome {
	case OutcomeSuccess:
		p.stats.PollsSucceeded++
		st.lastSuccess = now
		p.updateReferenceList(st, poll)
	case OutcomeInquorate:
		p.stats.PollsInquorate++
		// No outcome was determined, so nobody is removed — but discovery
		// still made progress: outer-circle voters whose votes agreed are
		// usable in future polls. Without this, a cold-started peer whose
		// early polls are inquorate could never grow its reference list.
		if poll.evalDone {
			for i := range poll.sols {
				sol := &poll.sols[i]
				if sol.outer && sol.state == solGotVote && !sol.excluded && sol.dis < 0 {
					st.refList.add(sol.peer)
				}
			}
		}
	case OutcomeInconclusive:
		p.stats.PollsInconclusive++
		p.stats.Alarms++
		p.obs.Alarm(p.id, st.spec.ID, poll.id, now)
	case OutcomeRepairFailed:
		p.stats.PollsRepairFailed++
	}
	p.obs.PollConcluded(p.id, st.spec.ID, poll.id, outcome, poll.started, now)

	// Fixed-rate restart: the next poll concludes one interval after this
	// poll's scheduled deadline, regardless of adversity (rate limitation:
	// peers do not back off, nor hurry). The one sanctioned exception is an
	// expedited audit (RaiseAuditPriority): first-hand local evidence of
	// on-disk damage pulls the next conclusion in to a quarter interval.
	nextDeadline := poll.deadline + sched.Time(p.cfg.PollInterval)
	if nextDeadline <= now {
		nextDeadline = now + sched.Time(p.cfg.PollInterval)
	}
	// The expedite cut runs after the late-poll clamp: a poll that
	// concluded behind schedule (a stall is exactly when damage tends to be
	// outstanding) must not swallow the raised priority.
	if st.expedite {
		st.expedite = false
		if exp := now + sched.Time(p.cfg.PollInterval/4); exp < nextDeadline {
			nextDeadline = exp
		}
	}
	st.poll = nil
	p.releasePoll(poll)
	p.startPoll(st, nextDeadline)
}

// updateReferenceList applies the paper's conclusion-time churn: remove the
// inner-circle voters whose votes determined the outcome, insert agreeing
// outer-circle voters, and replenish from the friends list.
func (p *Peer) updateReferenceList(st *auState, poll *pollState) {
	for i := range poll.sols {
		sol := &poll.sols[i]
		if sol.state != solGotVote {
			continue
		}
		if sol.outer {
			if !sol.excluded && sol.dis < 0 {
				st.refList.add(sol.peer)
			}
			continue
		}
		// Tallied inner voter: remove, and forget its introductions.
		st.refList.remove(sol.peer)
		st.rep.ForgetIntroducer(sol.peer)
	}
	// Replenish toward the target from friends, then re-admit tallied
	// voters if the population is too small to refill otherwise.
	if len(st.refList) < p.cfg.RefListTarget {
		// SampleInto with k == n is a full permutation with Perm's draws.
		perm := p.env.Rand().SampleInto(p.idxScratch, len(p.friends), len(p.friends))
		p.idxScratch = perm
		for _, i := range perm {
			if len(st.refList) >= p.cfg.RefListTarget {
				break
			}
			if f := p.friends[i]; f != p.id {
				st.refList.add(f)
			}
		}
	}
	if len(st.refList) < p.cfg.Quorum {
		for i := range poll.sols {
			if len(st.refList) >= p.cfg.RefListTarget {
				break
			}
			sol := &poll.sols[i]
			if sol.state == solGotVote && !sol.excluded && sol.peer != p.id {
				st.refList.add(sol.peer)
			}
		}
	}
	// Trim above the maximum, dropping random members.
	for len(st.refList) > p.cfg.RefListMax {
		i := p.env.Rand().Intn(len(st.refList))
		victim := st.refList[i]
		st.refList = slices.Delete(st.refList, i, i+1)
		st.rep.ForgetIntroducer(victim)
	}
}
