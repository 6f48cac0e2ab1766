package protocol

import (
	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/sched"
)

// TimerID identifies a timer armed through Env.After so it can be cancelled
// without allocating a closure per timer (the protocol arms one or more
// timers per message on the hot path). The zero TimerID is never issued, so
// it doubles as "no timer pending".
type TimerID uint64

// Env supplies a Peer with time, timers, randomness, transport and effort
// primitives. The discrete-event simulator and the real networked node each
// provide an implementation; the protocol state machines are identical under
// both.
type Env interface {
	// Now returns the current time on the environment's clock.
	Now() sched.Time
	// After schedules fn once, d from now, returning the timer's ID.
	After(d sched.Duration, fn func()) TimerID
	// Cancel stops a pending timer. Cancelling the zero TimerID, or a timer
	// that already fired or was already cancelled, is a no-op returning
	// false.
	Cancel(t TimerID) bool
	// Rand returns the peer's deterministic randomness stream.
	Rand() *prng.Source
	// Send transmits a message to another peer. Delivery is best-effort and
	// unacknowledged at this layer. Nothing behind m — the record, its
	// Nominations array — may be kept after Send returns: the peer sends
	// every message from one reused record and draws nominations into
	// scratch. An implementation that needs the message later copies it.
	Send(to ids.PeerID, m *Msg)
	// MakeProof generates a proof of effort of the given cost bound to ctx.
	// A non-nil receipt receives the proof's secret byproduct; only a caller
	// that keeps it asks, so the simulator derives one only then. Generation
	// cost is charged by the caller via the peer's ledger; in the simulator
	// the proof is symbolic, in the real node it is an MBF computation.
	MakeProof(ctx []byte, cost effort.Seconds, receipt *effort.Receipt) effort.Proof
	// VerifyProof checks that p is valid for ctx and claims at least
	// minCost of effort.
	VerifyProof(ctx []byte, p effort.Proof, minCost effort.Seconds) bool
	// EvalReceipt derives the byproduct receipt of p by fully evaluating it
	// (the expensive path a poller takes while evaluating a vote). ok is
	// false if the proof does not withstand full evaluation.
	EvalReceipt(ctx []byte, p effort.Proof) (r effort.Receipt, ok bool)
}

// EnvTap observes the inputs an Env feeds into a Peer, plus the messages the
// Peer hands back to the Env for transmission. A tap sees exactly the event
// stream that determines the peer's state evolution, in execution order, so a
// recording of these events suffices to replay the peer deterministically.
// All methods are called synchronously on the peer's execution context (the
// node actor loop); implementations must be cheap and must not call back into
// the peer.
type EnvTap interface {
	// MsgIn fires after a frame is decoded and immediately before it is
	// delivered to Peer.Receive, for every frame so delivered and for no
	// other: an Env that discards traffic before the peer (the node's read
	// loops shed invitations that admission control is certain to reject)
	// does not report it, because what never reaches Receive is not an input
	// to the peer, and a replay of the reported frames alone reproduces its
	// state. frame is the decoded wire payload, the tap's own copy to retain.
	MsgIn(from ids.PeerID, frame []byte, m *Msg, now sched.Time)
	// TimerFired fires when a live timer's callback is about to run.
	// Cancelled timers are never reported.
	TimerFired(id TimerID, now sched.Time)
	// MsgOut fires when the peer asks the Env to transmit a message.
	MsgOut(to ids.PeerID, m *Msg, now sched.Time)
	// DamageNoticed fires when local storage damage is detected (scrub) and
	// is about to be raised to the peer via RaiseAuditPriority.
	DamageNoticed(au content.AUID, block int, now sched.Time)
}

// Outcome classifies how a poll concluded.
type Outcome uint8

const (
	// OutcomeSuccess: quorate, landslide agreement on every block after any
	// repairs.
	OutcomeSuccess Outcome = iota
	// OutcomeInquorate: fewer than quorum inner votes tallied.
	OutcomeInquorate
	// OutcomeInconclusive: no landslide either way on some block; raises an
	// alarm for the human operator.
	OutcomeInconclusive
	// OutcomeRepairFailed: the poller could not obtain a usable repair for
	// a block the landslide says is damaged.
	OutcomeRepairFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeInquorate:
		return "inquorate"
	case OutcomeInconclusive:
		return "inconclusive"
	case OutcomeRepairFailed:
		return "repair-failed"
	}
	return "invalid"
}

// Observer receives protocol-level events for metrics collection. Every
// event carries the ID of the poll it belongs to, so observers can correlate
// events into per-poll spans without shadowing protocol state. All methods
// are called synchronously from the protocol; implementations must be cheap.
type Observer interface {
	// PollConcluded fires when a peer finishes a poll on an AU. started is
	// the poll's start time, so now-started is the poll duration.
	PollConcluded(peer ids.PeerID, au content.AUID, pollID uint64, outcome Outcome, started, now sched.Time)
	// Alarm fires on an inconclusive poll.
	Alarm(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time)
	// RepairApplied fires after a replica block is overwritten by a repair.
	RepairApplied(peer ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time)
	// VoteSupplied fires when a voter sends a vote.
	VoteSupplied(voter, poller ids.PeerID, au content.AUID, pollID uint64, now sched.Time)
}

// SpanObserver receives the finer-grained poll-lifecycle events between a
// poll's start and its conclusion. It is optional: the protocol discovers it
// by type-asserting the configured Observer, so implementations that do not
// need spans pay nothing. TeeObserver forwards span events to every member
// that implements this interface.
type SpanObserver interface {
	// PollStarted fires when a poller opens a poll.
	PollStarted(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time)
	// VoteSolicited fires each time the poller sends (or re-sends) a vote
	// invitation to a prospective voter.
	VoteSolicited(poller, voter ids.PeerID, au content.AUID, pollID uint64, now sched.Time)
	// VoteReceived fires when the poller accepts a valid vote. solicitedAt
	// is when this voter's latest invitation was sent, so now-solicitedAt is
	// the solicitation-to-vote latency.
	VoteReceived(poller, voter ids.PeerID, au content.AUID, pollID uint64, solicitedAt, now sched.Time)
	// TallyStarted fires when the poller begins evaluating collected votes.
	TallyStarted(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time)
	// RepairRequested fires when the poller asks a voter for a repair block.
	RepairRequested(poller, voter ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time)
}

// NopObserver ignores all events.
type NopObserver struct{}

// PollConcluded implements Observer.
func (NopObserver) PollConcluded(ids.PeerID, content.AUID, uint64, Outcome, sched.Time, sched.Time) {
}

// Alarm implements Observer.
func (NopObserver) Alarm(ids.PeerID, content.AUID, uint64, sched.Time) {}

// RepairApplied implements Observer.
func (NopObserver) RepairApplied(ids.PeerID, content.AUID, uint64, int, sched.Time) {}

// VoteSupplied implements Observer.
func (NopObserver) VoteSupplied(ids.PeerID, ids.PeerID, content.AUID, uint64, sched.Time) {}

// TeeObserver fans protocol events out to several observers in order. Nil
// entries are skipped. The returned observer also implements SpanObserver,
// forwarding span events (in the same order) to the members that implement
// it.
func TeeObserver(obs ...Observer) Observer {
	t := &teeObserver{obs: make([]Observer, 0, len(obs))}
	for _, o := range obs {
		if o == nil {
			continue
		}
		t.obs = append(t.obs, o)
		if so, ok := o.(SpanObserver); ok {
			t.spans = append(t.spans, so)
		}
	}
	return t
}

type teeObserver struct {
	obs   []Observer
	spans []SpanObserver
}

// PollConcluded implements Observer.
func (t *teeObserver) PollConcluded(p ids.PeerID, au content.AUID, pollID uint64, o Outcome, started, now sched.Time) {
	for _, ob := range t.obs {
		ob.PollConcluded(p, au, pollID, o, started, now)
	}
}

// Alarm implements Observer.
func (t *teeObserver) Alarm(p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	for _, ob := range t.obs {
		ob.Alarm(p, au, pollID, now)
	}
}

// RepairApplied implements Observer.
func (t *teeObserver) RepairApplied(p ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	for _, ob := range t.obs {
		ob.RepairApplied(p, au, pollID, block, now)
	}
}

// VoteSupplied implements Observer.
func (t *teeObserver) VoteSupplied(voter, poller ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	for _, ob := range t.obs {
		ob.VoteSupplied(voter, poller, au, pollID, now)
	}
}

// PollStarted implements SpanObserver.
func (t *teeObserver) PollStarted(p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	for _, ob := range t.spans {
		ob.PollStarted(p, au, pollID, now)
	}
}

// VoteSolicited implements SpanObserver.
func (t *teeObserver) VoteSolicited(poller, voter ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	for _, ob := range t.spans {
		ob.VoteSolicited(poller, voter, au, pollID, now)
	}
}

// VoteReceived implements SpanObserver.
func (t *teeObserver) VoteReceived(poller, voter ids.PeerID, au content.AUID, pollID uint64, solicitedAt, now sched.Time) {
	for _, ob := range t.spans {
		ob.VoteReceived(poller, voter, au, pollID, solicitedAt, now)
	}
}

// TallyStarted implements SpanObserver.
func (t *teeObserver) TallyStarted(p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	for _, ob := range t.spans {
		ob.TallyStarted(p, au, pollID, now)
	}
}

// RepairRequested implements SpanObserver.
func (t *teeObserver) RepairRequested(poller, voter ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	for _, ob := range t.spans {
		ob.RepairRequested(poller, voter, au, pollID, block, now)
	}
}
