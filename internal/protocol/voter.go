package protocol

import (
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/reputation"
	"lockss/internal/sched"
)

// voterState tracks one voter-side session.
type voterState uint8

const (
	vsAwaitProof voterState = iota
	vsAwaitSlot
	vsAwaitReceipt
	vsClosed
)

// voterSession is the voter's record of a poll it committed to, poller's
// poll pollID.
type voterSession struct {
	poller       ids.PeerID
	state        voterState
	pollID       uint64
	taskID       sched.TaskID
	slotEnd      sched.Time
	pollDeadline sched.Time
	nonce        Nonce
	myReceipt    effort.Receipt
	timer        TimerID
	repairs      int

	// st is the session's AU and fire its one timer callback, bound when
	// the record is first allocated: a session has at most one timer
	// pending, and sessionTimer tells by state which deadline it was.
	st   *auState
	fire func()
	// next is the poller's next live session on the same AU (auState.sessions).
	next *voterSession
}

// refillConsiderTokens advances the self-clocked consideration rate
// limiter: a peer considers poll invitations at most at a small multiple of
// the invitation rate it generates itself (§5.1).
func (p *Peer) refillConsiderTokens(st *auState) {
	now := p.env.Now()
	if st.considerAt < 0 {
		st.considerAt = now
		return
	}
	elapsed := float64(now - st.considerAt)
	if elapsed <= 0 {
		return
	}
	ownRate := float64(p.cfg.InnerCircle+p.cfg.OuterCircle) / float64(p.cfg.PollInterval)
	st.considerTokens += elapsed * ownRate * p.cfg.ConsiderRateFactor
	if st.considerTokens > p.cfg.ConsiderBurst {
		st.considerTokens = p.cfg.ConsiderBurst
	}
	st.considerAt = now
}

// voterHandlePoll runs admission control and, on admission, considers the
// invitation: session setup, introductory-effort verification, schedule
// check, and commitment.
func (p *Peer) voterHandlePoll(st *auState, from ids.PeerID, m *Msg) {
	if from == p.id || m.Poller != from {
		return
	}
	if st.session(from, m.PollID) != nil {
		return
	}

	// Self-clocked rate limit on considering invitations at all.
	p.refillConsiderTokens(st)
	if st.considerTokens < 1 {
		p.stats.InvitesIgnored++
		return
	}
	// First-hand reputation admission control: refractory periods, random
	// drops, introductions. Rejections are silent and essentially free.
	now := p.env.Now()
	dec := st.rep.Consider(now, from, p.env.Rand())
	if !dec.Admitted() {
		p.stats.InvitesIgnored++
		return
	}
	st.considerTokens--

	// Adaptive acceptance (§9 extension): the busier this peer has recently
	// been, the likelier it is to ignore invitations from the unknown/
	// in-debt channel — the only channel an attacker can scale.
	if p.cfg.AdaptiveAcceptance && dec == reputation.AdmitUnknown {
		window := p.cfg.VoteWindow
		busy := p.sch.BusyFraction(p.env.Now()-sched.Time(window), p.env.Now())
		refuseProb := busy * p.cfg.AdaptiveGain
		if refuseProb > 0.95 {
			refuseProb = 0.95
		}
		if p.env.Rand().Bool(refuseProb) {
			p.stats.InvitesIgnored++
			return
		}
	}

	// Consideration proper: establish the session, check the schedule,
	// verify the introductory effort.
	p.stats.InvitesConsidered++
	p.charge(effort.KindSession, p.costs.SessionSetup)
	p.charge(effort.KindConsider, p.costs.ScheduleCheck)

	if p.cfg.EffortBalancing {
		p.charge(effort.KindVerify, p.costs.VerifyCost(st.pollEffort.Intro))
		if !p.env.VerifyProof(p.msgContext(m, "intro"), m.Proof, st.pollEffort.Intro) {
			p.stats.BadProofs++
			st.rep.Penalize(now, from)
			p.refuseInvite(st, from, m.PollID, RefuseBadEffort)
			return
		}
	}

	// Schedule the vote computation: hashing the replica plus generating
	// the vote's effort proof, within the poller's allowance. The slot must
	// start after the proof timeout so the PollProof always precedes it.
	voteDur := (st.pollEffort.VoteHash + st.pollEffort.VoteProof).Duration()
	earliest := now + sched.Time(p.cfg.ProofTimeout)
	taskID, slotStart, ok := p.sch.ReserveSlot(earliest, voteDur, m.VoteBy, st.voteLabel)
	if !ok {
		p.refuseInvite(st, from, m.PollID, RefuseBusy)
		return
	}

	s := p.openSession(st, from, m.PollID)
	s.taskID = taskID
	s.slotEnd = slotStart + sched.Time(voteDur)
	s.pollDeadline = m.PollDeadline
	p.send(from, Msg{
		Type:   MsgPollAck,
		AU:     st.spec.ID,
		PollID: m.PollID,
		Poller: from,
		Voter:  p.id,
		Accept: true,
	})
	s.timer = p.env.After(p.cfg.ProofTimeout, s.fire)
}

// sessionTimer runs a session's pending deadline. Every transition out of a
// state cancels the timer armed for it, so the state names the deadline.
func (p *Peer) sessionTimer(s *voterSession) {
	st, poller := s.st, s.poller
	switch s.state {
	case vsAwaitProof:
		// Reservation defense: the poller never followed up with PollProof;
		// release the commitment and penalize (the introductory effort was
		// sized to cover exactly this exposure).
		p.stats.ProofsTimedOut++
		p.sch.Release(s.taskID)
	case vsAwaitSlot:
		// The reserved compute slot is over: the vote materializes.
		p.completeVote(s)
		return
	case vsAwaitReceipt:
		// Waste defense: the poller withheld the evaluation receipt it owed.
		p.stats.ReceiptsTimedOut++
	default:
		return
	}
	st.rep.Penalize(p.env.Now(), poller)
	p.closeSession(st, s)
}

// refuseInvite sends a negative PollAck.
func (p *Peer) refuseInvite(st *auState, from ids.PeerID, pollID uint64, r RefuseReason) {
	p.stats.InvitesRefused++
	p.send(from, Msg{
		Type:   MsgPollAck,
		AU:     st.spec.ID,
		PollID: pollID,
		Poller: from,
		Voter:  p.id,
		Accept: false,
		Refuse: r,
	})
}

// voterHandleProof processes the PollProof: verify the remaining poller
// effort, then compute the vote in the reserved slot.
func (p *Peer) voterHandleProof(st *auState, from ids.PeerID, m *Msg) {
	s := st.session(from, m.PollID)
	if s == nil || s.state != vsAwaitProof {
		return
	}
	p.stopTimer(&s.timer)
	now := p.env.Now()
	if p.cfg.EffortBalancing {
		p.charge(effort.KindVerify, p.costs.VerifyCost(st.pollEffort.Remainder))
		if !p.env.VerifyProof(p.msgContext(m, "remainder"), m.Proof, st.pollEffort.Remainder) {
			p.stats.BadProofs++
			p.sch.Release(s.taskID)
			st.rep.Penalize(now, from)
			p.closeSession(st, s)
			return
		}
	}
	s.nonce = m.Nonce
	s.state = vsAwaitSlot
	// The vote materializes when its reserved compute slot completes.
	s.timer = p.env.After(sched.Duration(s.slotEnd-p.env.Now()), s.fire)
}

// completeVote runs at the end of the reserved compute slot: hash the
// replica under the nonce, generate the vote's provable effort, remember the
// receipt byproduct, and send the Vote with discovery nominations.
func (p *Peer) completeVote(s *voterSession) {
	st, poller := s.st, s.poller
	p.charge(effort.KindVote, st.pollEffort.VoteHash+st.pollEffort.VoteProof)
	vd := p.ownVoteData(st, s.nonce[:])
	m := Msg{
		Type:   MsgVote,
		AU:     st.spec.ID,
		PollID: s.pollID,
		Poller: poller,
		Voter:  p.id,
		Vote:   vd,
	}
	if p.cfg.EffortBalancing {
		m.Proof = p.env.MakeProof(p.msgContext(&m, "vote"), st.pollEffort.VoteProof, &s.myReceipt)
	}
	// Discovery: offer a random subset of the reference list.
	m.Nominations = p.sampleRefListInto(p.drawScratch, st, p.cfg.Nominations, poller)
	p.drawScratch = m.Nominations

	s.state = vsAwaitReceipt
	p.stats.VotesSupplied++
	p.obs.VoteSupplied(p.id, poller, st.spec.ID, s.pollID, p.env.Now())
	p.send(poller, m)

	// Waste defense: the poller owes an evaluation receipt by shortly after
	// the poll deadline; withholding it is penalized.
	wait := sched.Duration(s.pollDeadline-p.env.Now()) + p.cfg.ReceiptSlack
	if wait < 0 {
		wait = p.cfg.ReceiptSlack
	}
	s.timer = p.env.After(wait, s.fire)
}

// voterHandleRepairRequest serves a block to a poller we voted for, up to
// the per-poll cap. Voters committed to a poll are expected to supply a
// small number of repairs; exceeding the cap is ignored (and the poller will
// look elsewhere).
func (p *Peer) voterHandleRepairRequest(st *auState, from ids.PeerID, m *Msg) {
	s := st.session(from, m.PollID)
	if s == nil || s.state != vsAwaitReceipt {
		return
	}
	if s.repairs >= p.cfg.MaxRepairsServed {
		return
	}
	data, err := st.replica.RepairBlock(int(m.Block))
	if err != nil {
		return
	}
	s.repairs++
	p.stats.RepairsServed++
	p.charge(effort.KindRepair, p.costs.HashCost(st.spec.BlockSize))
	p.send(from, Msg{
		Type:       MsgRepair,
		AU:         st.spec.ID,
		PollID:     m.PollID,
		Poller:     from,
		Voter:      p.id,
		Block:      m.Block,
		RepairData: data,
	})
}

// voterHandleReceipt closes the loop: a valid receipt proves the poller
// evaluated our vote; the exchange bookkeeping then lowers the poller's
// grade by one step (it consumed a vote). An invalid receipt is misbehavior.
func (p *Peer) voterHandleReceipt(st *auState, from ids.PeerID, m *Msg) {
	s := st.session(from, m.PollID)
	if s == nil || s.state != vsAwaitReceipt {
		return
	}
	now := p.env.Now()
	if p.cfg.EffortBalancing {
		p.charge(effort.KindReceipt, p.costs.ReceiptCheck)
		if !effort.ReceiptMatches(s.myReceipt, m.Receipt) {
			st.rep.Penalize(now, from)
			p.closeSession(st, s)
			return
		}
	}
	st.rep.Lower(now, from)
	p.closeSession(st, s)
}

// openSession draws a session record from the freelist, keeping its timer
// callback, and links it as poller's session for pollID on st, awaiting the
// proof.
func (p *Peer) openSession(st *auState, poller ids.PeerID, pollID uint64) *voterSession {
	var s *voterSession
	if k := len(p.freeSessions); k > 0 {
		s = p.freeSessions[k-1]
		p.freeSessions[k-1] = nil
		p.freeSessions = p.freeSessions[:k-1]
	} else {
		s = &voterSession{}
		s.fire = func() { p.sessionTimer(s) }
	}
	*s = voterSession{
		poller: poller,
		state:  vsAwaitProof,
		pollID: pollID,
		st:     st,
		fire:   s.fire,
		next:   st.sessions[poller],
	}
	st.sessions[poller] = s
	st.nSessions++
	return s
}

// closeSession cancels timers and forgets the session, recycling the record.
// A session's only live timer is cancelled here, so nothing can observe the
// record after it returns to the freelist.
func (p *Peer) closeSession(st *auState, s *voterSession) {
	p.stopTimer(&s.timer)
	s.state = vsClosed
	st.unlinkSession(s)
	p.freeSessions = append(p.freeSessions, s)
}

// session returns the live session for poller's poll pollID, or nil.
func (st *auState) session(poller ids.PeerID, pollID uint64) *voterSession {
	s := st.sessions[poller]
	for s != nil && s.pollID != pollID {
		s = s.next
	}
	return s
}

// unlinkSession removes a live session from its poller's chain.
func (st *auState) unlinkSession(s *voterSession) {
	if head := st.sessions[s.poller]; head == s {
		if s.next == nil {
			delete(st.sessions, s.poller)
		} else {
			st.sessions[s.poller] = s.next
		}
	} else {
		for prev := head; prev != nil; prev = prev.next {
			if prev.next == s {
				prev.next = s.next
				break
			}
		}
	}
	s.next = nil
	st.nSessions--
}
