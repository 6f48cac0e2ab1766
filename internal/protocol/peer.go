package protocol

import (
	"fmt"
	"slices"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/reputation"
	"lockss/internal/sched"
)

// PeerStats counts protocol events at one peer.
type PeerStats struct {
	PollsStarted      uint64
	PollsSucceeded    uint64
	PollsInquorate    uint64
	PollsInconclusive uint64
	PollsRepairFailed uint64
	Alarms            uint64
	VotesSupplied     uint64
	VotesReceived     uint64
	InvitesConsidered uint64
	InvitesRefused    uint64
	InvitesIgnored    uint64
	RepairsServed     uint64
	RepairsReceived   uint64
	AcksTimedOut      uint64
	VotesTimedOut     uint64
	ProofsTimedOut    uint64
	ReceiptsTimedOut  uint64
	BadProofs         uint64
}

// auState is a peer's per-AU protocol state.
type auState struct {
	spec       content.AUSpec
	replica    content.Replica
	rep        *reputation.List
	refList    peerSet
	poll       *pollState
	pollEffort effort.PollEffort

	// sessions holds the live voter sessions by poller. A poller's other
	// live sessions, for other polls, chain through voterSession.next, so
	// nSessions, not len(sessions), counts them.
	sessions  map[ids.PeerID]*voterSession
	nSessions int

	// voteLabel and evalLabel are the schedule-reservation labels, built
	// once so the hot path does not concatenate strings per invitation.
	voteLabel string
	evalLabel string

	// ownVote caches the symbolic vote data derived from this peer's
	// replica, keyed on the replica's damage generation. Symbolic votes do
	// not depend on the poll nonce, so one boxed value serves every vote and
	// reference comparison until the replica mutates; the underlying
	// snapshot slice is immutable once built, so sharing it across in-flight
	// messages is safe.
	ownVote    VoteData
	ownVoteGen uint64

	// Self-clocked consideration rate limit (token bucket).
	considerTokens float64
	considerAt     sched.Time

	// lastSuccess is the conclusion time of the last successful poll
	// (negative when none yet).
	lastSuccess sched.Time

	// expedite requests that the next poll on this AU conclude early
	// (RaiseAuditPriority): local evidence — a storage scrubber finding rot
	// on disk — says the AU needs an audit sooner than the fixed cadence.
	expedite bool
}

// Peer is a LOCKSS peer: it runs polls on its AUs as a poller and serves
// votes and repairs as a voter. A Peer is single-threaded: the environment
// must deliver messages and timer callbacks sequentially.
type Peer struct {
	id ids.PeerID
	// cfg and costs are read-only and may be shared: the peers of one
	// simulated world all point at the same two values.
	cfg   *Config
	costs *effort.CostModel
	env   Env
	obs   Observer
	// spanObs is the optional fine-grained lifecycle observer, discovered by
	// type-asserting obs at construction; nil when the observer does not
	// implement SpanObserver, so peers without one pay a nil check per
	// lifecycle event and nothing more.
	spanObs SpanObserver
	sch     *sched.Schedule
	ledger  effort.Ledger
	// aus holds the preserved AUs in registration order, and byID the same
	// AUs sorted by ID: a lookup is a binary search, whether a peer holds
	// two AUs or a real box's sparse thousands.
	aus     []*auState
	byID    []auRef
	friends []ids.PeerID
	pollSeq uint32
	stats   PeerStats
	started bool
	// draining stops new polls from being called: in-flight polls run to
	// conclusion, voter sessions keep serving, but concludePoll no longer
	// schedules a successor. Set by Drain for graceful shutdown.
	draining bool

	// Reusable hot-path scratch. A Peer is single-threaded, and none of
	// these escape a single protocol callback: ctxScratch backs effort
	// contexts (consumed synchronously by Env), poolScratch/idxScratch back
	// reference-list and nomination sampling (idxScratch also the repair
	// candidates, as indices into the poll), candScratch backs the chosen
	// outer circle and the frivolous-repair candidates, drawScratch the inner
	// circle's invitees and a vote's nominations, and out every message sent
	// (Env.Send keeps nothing behind it).
	ctxScratch  []byte
	poolScratch []ids.PeerID
	idxScratch  []int
	candScratch []ids.PeerID
	drawScratch []ids.PeerID
	out         Msg

	// Freelists for per-poll state machines: polls (with the solicitations
	// they own) and voter sessions churn constantly but only a bounded number
	// are live at once on one peer.
	freePolls    []*pollState
	freeSessions []*voterSession
}

// New constructs a peer. The observer may be nil. The peer keeps cfg and
// costs and only reads them; the caller must not change either afterwards.
func New(id ids.PeerID, cfg *Config, costs *effort.CostModel, env Env, obs Observer) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if obs == nil {
		obs = NopObserver{}
	}
	spanObs, _ := obs.(SpanObserver)
	return &Peer{
		id:      id,
		cfg:     cfg,
		costs:   costs,
		env:     env,
		obs:     obs,
		spanObs: spanObs,
		sch:     sched.New(),
	}, nil
}

// auRef is one entry of Peer.byID. It holds the ID beside the state so that
// a search reads one array.
type auRef struct {
	id content.AUID
	st *auState
}

// auIndex returns where AU id is or would be in p.byID, and whether it is.
// It is slices.BinarySearchFunc written out, as that one is not inlined and
// calls its comparison through a pointer at every probe, and every message
// pays for this search.
func (p *Peer) auIndex(id content.AUID) (int, bool) {
	lo, hi := 0, len(p.byID)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.byID[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.byID) && p.byID[lo].id == id
}

// au returns the peer's state for AU id, or nil if it does not preserve it.
func (p *Peer) au(id content.AUID) *auState {
	if i, ok := p.auIndex(id); ok {
		return p.byID[i].st
	}
	return nil
}

// ID returns the peer's identity.
func (p *Peer) ID() ids.PeerID { return p.id }

// Schedule exposes the task schedule (for the layering hook and tests).
func (p *Peer) Schedule() *sched.Schedule { return p.sch }

// Ledger exposes the peer's effort ledger.
func (p *Peer) Ledger() *effort.Ledger { return &p.ledger }

// Stats returns a snapshot of the peer's counters.
func (p *Peer) Stats() PeerStats { return p.stats }

// PollsConcluded sums the per-outcome conclusion counters.
func (s PeerStats) PollsConcluded() uint64 {
	return s.PollsSucceeded + s.PollsInquorate + s.PollsInconclusive + s.PollsRepairFailed
}

// Drain stops the peer from calling new polls: every in-flight poll runs to
// its conclusion (the guard timer bounds that), after which the AU sits idle
// instead of starting a successor. Voter-side sessions keep serving votes and
// repairs — a draining peer stays useful to the population until it is
// stopped. Drain is irreversible for the life of the Peer.
func (p *Peer) Drain() { p.draining = true }

// ActivePolls counts AUs with a poller-side poll in flight. It reaches zero
// only after Drain (a non-draining peer immediately replaces each concluded
// poll with the next).
func (p *Peer) ActivePolls() int {
	n := 0
	for _, st := range p.aus {
		if st.poll != nil {
			n++
		}
	}
	return n
}

// SetFriends installs the operator-maintained friends list.
func (p *Peer) SetFriends(friends []ids.PeerID) {
	p.friends = nil
	for _, f := range friends {
		if f != p.id {
			p.friends = append(p.friends, f)
		}
	}
}

// Friends returns the operator-maintained friends list.
func (p *Peer) Friends() []ids.PeerID {
	return append([]ids.PeerID(nil), p.friends...)
}

// AddFriend appends one peer to the operator-maintained friends list at
// runtime (operators coordinate when a new library joins the network).
func (p *Peer) AddFriend(f ids.PeerID) {
	if f == p.id {
		return
	}
	for _, existing := range p.friends {
		if existing == f {
			return
		}
	}
	p.friends = append(p.friends, f)
}

// AddToReferenceList inserts a peer into the reference list for an AU, as a
// deliberate operator action (mutual friendship on join).
func (p *Peer) AddToReferenceList(au content.AUID, peer ids.PeerID) {
	st := p.au(au)
	if st == nil || peer == p.id {
		return
	}
	st.refList.add(peer)
}

// AddAU registers a replica to preserve, with an initial reference list
// (typically friends plus a bootstrap sample of the population). Must be
// called before Start.
func (p *Peer) AddAU(replica content.Replica, refList []ids.PeerID) error {
	if p.started {
		return fmt.Errorf("protocol: AddAU after Start")
	}
	spec := replica.Spec()
	at, dup := p.auIndex(spec.ID)
	if dup {
		return fmt.Errorf("protocol: duplicate AU %v", spec.ID)
	}
	st := &auState{
		spec:       spec,
		replica:    replica,
		rep:        reputation.NewList(p.cfg.reputationParams()),
		refList:    make(peerSet, 0, max(len(refList), p.cfg.RefListMax)),
		sessions:   make(map[ids.PeerID]*voterSession),
		pollEffort: p.costs.PollEffortFor(spec.Size, spec.Blocks()),
		voteLabel:  "vote " + spec.Name,
		evalLabel:  "eval " + spec.Name,
		considerAt: -1,
		// considerTokens starts full.
		considerTokens: p.cfg.ConsiderBurst,
		lastSuccess:    -1,
	}
	for _, r := range refList {
		if r != p.id {
			st.refList.add(r)
		}
	}
	p.aus = append(p.aus, st)
	p.byID = slices.Insert(p.byID, at, auRef{spec.ID, st})
	return nil
}

// AUs returns the preserved AU IDs in registration order.
func (p *Peer) AUs() []content.AUID {
	out := make([]content.AUID, len(p.aus))
	for i, st := range p.aus {
		out[i] = st.spec.ID
	}
	return out
}

// Replica returns the peer's replica of an AU, or nil.
func (p *Peer) Replica(au content.AUID) content.Replica {
	if st := p.au(au); st != nil {
		return st.replica
	}
	return nil
}

// ReferenceList returns a copy of the current reference list for an AU,
// sorted by peer ID.
func (p *Peer) ReferenceList(au content.AUID) []ids.PeerID {
	st := p.au(au)
	if st == nil {
		return nil
	}
	return slices.Clone(st.refList)
}

// Reputation exposes the known-peers list for an AU (for tests, metrics and
// the adversary's insider-information oracle).
func (p *Peer) Reputation(au content.AUID) *reputation.List {
	if st := p.au(au); st != nil {
		return st.rep
	}
	return nil
}

// SeedGrade initializes a peer's grade in the known-peers list of one AU.
// Population builders use it to model steady-state acquaintance; the
// brute-force experiment uses it to start minions in debt (the paper's
// conservative initialization).
func (p *Peer) SeedGrade(au content.AUID, peer ids.PeerID, g reputation.Grade) {
	st := p.au(au)
	if st == nil || peer == p.id {
		return
	}
	now := p.env.Now()
	switch g {
	case reputation.Debt:
		st.rep.Penalize(now, peer)
	case reputation.Even:
		st.rep.Penalize(now, peer)
		st.rep.Raise(now, peer)
	case reputation.Credit:
		st.rep.Penalize(now, peer)
		st.rep.Raise(now, peer)
		st.rep.Raise(now, peer)
	}
}

// RefEntry is one reference-list member with its current first-hand
// reputation grade for the AU.
type RefEntry struct {
	Peer  ids.PeerID
	Grade reputation.Grade
}

// AUInfo is a point-in-time snapshot of one AU's protocol state, built for
// operator inspection (the admin API's /aus endpoint). It must be taken on
// the peer's single thread — the real node routes it through Inspect.
type AUInfo struct {
	Spec       content.AUSpec
	Generation uint64
	// DamagedBlocks lists the replica's currently damaged block indices.
	DamagedBlocks []int
	// PollActive reports a poller-side poll in flight; PollDeadline is its
	// scheduled conclusion time (zero when idle, which only happens while
	// draining).
	PollActive   bool
	PollDeadline sched.Time
	// Expedite reports a pending RaiseAuditPriority request.
	Expedite bool
	// LastSuccess is the conclusion time of the last successful poll
	// (negative before the first).
	LastSuccess sched.Time
	// VoterSessions counts voter-side commitments to other pollers.
	VoterSessions int
	// RefList holds the reference list with grades, sorted by peer ID.
	RefList []RefEntry
}

// auInfo snapshots st.
func (p *Peer) auInfo(st *auState) AUInfo {
	info := AUInfo{
		Spec:          st.spec,
		Generation:    st.replica.Generation(),
		Expedite:      st.expedite,
		LastSuccess:   st.lastSuccess,
		VoterSessions: st.nSessions,
	}
	for _, d := range st.replica.Snapshot() {
		info.DamagedBlocks = append(info.DamagedBlocks, d.Block)
	}
	if st.poll != nil {
		info.PollActive = true
		info.PollDeadline = st.poll.deadline
	}
	now := p.env.Now()
	for _, id := range st.refList {
		info.RefList = append(info.RefList, RefEntry{Peer: id, Grade: st.rep.GradeOf(now, id)})
	}
	return info
}

// AUInfos snapshots every preserved AU in registration order.
func (p *Peer) AUInfos() []AUInfo {
	out := make([]AUInfo, len(p.aus))
	for i, st := range p.aus {
		out[i] = p.auInfo(st)
	}
	return out
}

// RaiseAuditPriority asks for the poll *after* the in-flight one on an AU
// to be scheduled a quarter interval out instead of a full one. The real
// node calls it when its storage scrubber finds damage on disk. A poll is
// always in flight and its votes hash the actual stored bytes, so the
// damage is under audit already; what this trims is the idle gap before the
// retry when that poll fails to heal it (inquorate, repair-failed, or the
// rot appeared too late in the window). The quarter-interval floor keeps
// the paper's rate limitation biting — peers do not hurry under external
// pressure, and this fires only on first-hand local evidence, which no
// remote attacker controls. The request is consumed at the next poll
// conclusion; callers with persistent damage (the scrubber re-observes it
// every pass) simply raise it again. The simulator never calls this, so
// simulation runs are unaffected.
func (p *Peer) RaiseAuditPriority(au content.AUID) {
	if st := p.au(au); st != nil {
		st.expedite = true
	}
}

// Start schedules the first poll on every AU at a jittered phase within the
// poll interval, desynchronizing peers and AUs from the outset.
func (p *Peer) Start() {
	p.started = true
	for _, st := range p.aus {
		// First poll concludes at a random phase within [0.1, 1.1) of an
		// interval, so poll deadlines are spread uniformly in steady state.
		frac := 0.1 + p.cfg.PollJitter*p.env.Rand().Float64()
		delay := sched.Duration(float64(p.cfg.PollInterval) * frac)
		deadline := p.env.Now() + sched.Time(delay)
		p.startPoll(st, deadline)
	}
}

// Receive is the transport entry point.
func (p *Peer) Receive(from ids.PeerID, m *Msg) {
	if m == nil {
		return
	}
	st := p.au(m.AU)
	if st == nil {
		return // not preserving this AU
	}
	switch m.Type {
	case MsgPoll:
		p.voterHandlePoll(st, from, m)
	case MsgPollAck:
		p.pollerHandleAck(st, from, m)
	case MsgPollProof:
		p.voterHandleProof(st, from, m)
	case MsgVote:
		p.pollerHandleVote(st, from, m)
	case MsgRepairRequest:
		p.voterHandleRepairRequest(st, from, m)
	case MsgRepair:
		p.pollerHandleRepair(st, from, m)
	case MsgEvaluationReceipt:
		p.voterHandleReceipt(st, from, m)
	}
}

// charge records defender effort.
func (p *Peer) charge(kind effort.Kind, e effort.Seconds) {
	p.ledger.Charge(kind, e)
}

// gcSchedules trims expired reservations; called at poll boundaries.
func (p *Peer) gcSchedule() {
	p.sch.GC(p.env.Now())
}

// send transmits m from the peer's one outgoing record: passing Env a
// pointer to a local would move every message to the heap, and Env.Send
// keeps nothing behind its argument, so the next send may reuse the record.
func (p *Peer) send(to ids.PeerID, m Msg) {
	p.out = m
	p.env.Send(to, &p.out)
}

// peerSet is a set of peer IDs that the protocol caps — a reference list, a
// poll's nominations — held as a sorted slice: membership is a binary search
// and iteration is in the fixed order deterministic sampling needs.
type peerSet []ids.PeerID

func (s peerSet) has(p ids.PeerID) bool {
	_, ok := slices.BinarySearch(s, p)
	return ok
}

func (s *peerSet) add(p ids.PeerID) {
	if i, ok := slices.BinarySearch(*s, p); !ok {
		*s = slices.Insert(*s, i, p)
	}
}

func (s *peerSet) remove(p ids.PeerID) {
	if i, ok := slices.BinarySearch(*s, p); ok {
		*s = slices.Delete(*s, i, i+1)
	}
}

// msgContext derives m's effort-binding context for a protocol phase into
// the peer's reusable scratch buffer. The result is only valid until the
// next msgContext call on this peer; Env's effort primitives consume it
// synchronously.
func (p *Peer) msgContext(m *Msg, phase string) []byte {
	p.ctxScratch = AppendPollContext(p.ctxScratch[:0], m.Poller, m.Voter, m.AU, m.PollID, phase)
	return p.ctxScratch
}

// sampleRefListInto draws up to n distinct reference-list members, excluding
// the given peer (ids.NoPeer excludes nobody), into dst's backing array. The
// candidate pool behind the draw is scratch too, so the result must be
// consumed before the next draw on this peer.
func (p *Peer) sampleRefListInto(dst []ids.PeerID, st *auState, n int, exclude ids.PeerID) []ids.PeerID {
	pool := p.poolScratch[:0]
	for _, id := range st.refList {
		if id != p.id && id != exclude {
			pool = append(pool, id)
		}
	}
	p.poolScratch = pool
	if n >= len(pool) {
		p.env.Rand().Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		return append(dst[:0], pool...)
	}
	idx := p.env.Rand().SampleInto(p.idxScratch, len(pool), n)
	p.idxScratch = idx
	dst = dst[:0]
	for _, j := range idx {
		dst = append(dst, pool[j])
	}
	return dst
}
