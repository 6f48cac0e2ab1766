package telemetry

import (
	"sync"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// Defaults for the recorder's fixed-size buffers.
const (
	defaultRingSize   = 4096
	defaultRecentSize = 512
	defaultVotesSize  = 1024
)

// PollSpan is the aggregated lifecycle of one poll as seen by its initiator:
// every timestamp is on the recording node's clock (virtual time under the
// simulator, wall UnixNano on a real node).
type PollSpan struct {
	PollID      uint64 `json:"poll_id"`
	Peer        uint32 `json:"peer"`
	AU          uint32 `json:"au"`
	StartedNs   int64  `json:"started_ns"`
	ConcludedNs int64  `json:"concluded_ns,omitempty"`
	DurationNs  int64  `json:"duration_ns,omitempty"`
	// Outcome is empty while the poll is in flight.
	Outcome  string `json:"outcome,omitempty"`
	Solicits int    `json:"solicits"`
	Votes    int    `json:"votes"`
	Repairs  int    `json:"repairs"`
	TallyNs  int64  `json:"tally_ns,omitempty"`
}

// VoteRecord is one vote this node supplied to another poller's poll — the
// voter-side half that a fleet-level timeline joins to the initiator's
// PollSpan by PollID.
type VoteRecord struct {
	PollID uint64 `json:"poll_id"`
	Voter  uint32 `json:"voter"`
	Poller uint32 `json:"poller"`
	AU     uint32 `json:"au"`
	TNs    int64  `json:"t_ns"`
}

// pollAgg is the in-flight accumulator behind one PollSpan.
type pollAgg struct {
	span        PollSpan
	tallyAt     sched.Time
	repairReqAt sched.Time
}

// Telemetry is one node's always-on recorder. It implements
// protocol.Observer and protocol.SpanObserver, so it attaches to a peer via
// protocol.TeeObserver next to whatever observer the embedding layer already
// uses. The histograms are wait-free; the span table takes a short mutex on
// poll-lifecycle events only (a handful per poll, never per message).
type Telemetry struct {
	// PollDuration: poll start to conclusion, per concluded poll.
	PollDuration Histogram
	// SolicitToVote: invitation sent to valid vote accepted, per vote.
	SolicitToVote Histogram
	// TallyTime: evaluation start to conclusion (includes repair rounds).
	TallyTime Histogram
	// RepairTime: repair requested to repair applied, per repair.
	RepairTime Histogram
	// QueueWait: transport enqueue to writer dequeue, per frame.
	QueueWait Histogram
	// ScrubPass: duration of one full scrub pass over the store.
	ScrubPass Histogram
	// AdminLatency: admin HTTP handler latency, per request.
	AdminLatency Histogram

	ring *Ring

	mu       sync.Mutex
	inflight map[uint64]*pollAgg
	recent   history[PollSpan]
	votes    history[VoteRecord]
	free     []*pollAgg
}

// history keeps the last cap(buf) entries pushed; its owner's lock guards
// it.
type history[T any] struct {
	buf  []T
	next int // once buf is full, the oldest slot
}

func newHistory[T any](n int) history[T] { return history[T]{buf: make([]T, 0, n)} }

// push appends v, overwriting the oldest entry once the table is full.
func (h *history[T]) push(v T) {
	if len(h.buf) < cap(h.buf) {
		h.buf = append(h.buf, v)
		return
	}
	h.buf[h.next] = v
	h.next = (h.next + 1) % len(h.buf)
}

// appendTo appends the entries to dst, oldest first.
func (h *history[T]) appendTo(dst []T) []T {
	return append(append(dst, h.buf[h.next:]...), h.buf[:h.next]...)
}

// New returns a Telemetry with the default buffer sizes.
func New() *Telemetry { return NewSized(defaultRingSize, defaultRecentSize) }

// NewSized returns a Telemetry with a flight-recorder ring of ringSize
// events and a concluded-poll table of recentSize spans.
func NewSized(ringSize, recentSize int) *Telemetry {
	if recentSize < 1 {
		recentSize = 1
	}
	return &Telemetry{
		ring:     NewRing(ringSize),
		inflight: make(map[uint64]*pollAgg),
		recent:   newHistory[PollSpan](recentSize),
		votes:    newHistory[VoteRecord](defaultVotesSize),
	}
}

// Ring exposes the flight recorder for dumps.
func (t *Telemetry) Ring() *Ring { return t.ring }

// HistogramFamily is one latency histogram every recorder keeps.
type HistogramFamily struct {
	// Name is the /metrics family name without the lockss_ prefix and the
	// _seconds suffix.
	Name string
	Help string
	// Of selects the family's histogram in a recorder.
	Of func(*Telemetry) *Histogram
}

// HistogramFamilies lists the histogram families in exposition order. It is
// the one table the admin exposition writes from and the fleet merges by.
func HistogramFamilies() []HistogramFamily {
	return []HistogramFamily{
		{"poll_duration", "Poll start to conclusion.", func(t *Telemetry) *Histogram { return &t.PollDuration }},
		{"solicit_vote", "Vote invitation sent to valid vote accepted.", func(t *Telemetry) *Histogram { return &t.SolicitToVote }},
		{"tally", "Vote evaluation start to poll conclusion (including repair rounds).", func(t *Telemetry) *Histogram { return &t.TallyTime }},
		{"repair", "Repair requested to repair block applied.", func(t *Telemetry) *Histogram { return &t.RepairTime }},
		{"transport_queue_wait", "Outbound frame enqueue to writer dequeue.", func(t *Telemetry) *Histogram { return &t.QueueWait }},
		{"scrub_pass", "One full scrub pass over the store.", func(t *Telemetry) *Histogram { return &t.ScrubPass }},
		{"admin_latency", "Admin HTTP handler latency.", func(t *Telemetry) *Histogram { return &t.AdminLatency }},
	}
}

// getAgg draws a poll accumulator from the freelist; callers hold t.mu.
func (t *Telemetry) getAgg() *pollAgg {
	if k := len(t.free); k > 0 {
		a := t.free[k-1]
		t.free = t.free[:k-1]
		*a = pollAgg{}
		return a
	}
	return &pollAgg{}
}

// PollStarted implements protocol.SpanObserver.
func (t *Telemetry) PollStarted(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	t.ring.Append(EvPollStart, int64(now), uint32(peer), 0, uint32(au), pollID, 0, 0)
	t.mu.Lock()
	a := t.getAgg()
	a.span = PollSpan{PollID: pollID, Peer: uint32(peer), AU: uint32(au), StartedNs: int64(now)}
	t.inflight[pollID] = a
	t.mu.Unlock()
}

// VoteSolicited implements protocol.SpanObserver.
func (t *Telemetry) VoteSolicited(poller, voter ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	t.ring.Append(EvSolicit, int64(now), uint32(poller), uint32(voter), uint32(au), pollID, 0, 0)
	t.mu.Lock()
	if a := t.inflight[pollID]; a != nil {
		a.span.Solicits++
	}
	t.mu.Unlock()
}

// VoteReceived implements protocol.SpanObserver.
func (t *Telemetry) VoteReceived(poller, voter ids.PeerID, au content.AUID, pollID uint64, solicitedAt, now sched.Time) {
	t.SolicitToVote.Observe(int64(now - solicitedAt))
	t.ring.Append(EvVoteIn, int64(now), uint32(poller), uint32(voter), uint32(au), pollID, 0, 0)
	t.mu.Lock()
	if a := t.inflight[pollID]; a != nil {
		a.span.Votes++
	}
	t.mu.Unlock()
}

// TallyStarted implements protocol.SpanObserver.
func (t *Telemetry) TallyStarted(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	t.ring.Append(EvTally, int64(now), uint32(peer), 0, uint32(au), pollID, 0, 0)
	t.mu.Lock()
	if a := t.inflight[pollID]; a != nil {
		a.tallyAt = now
		a.span.TallyNs = int64(now)
	}
	t.mu.Unlock()
}

// RepairRequested implements protocol.SpanObserver.
func (t *Telemetry) RepairRequested(poller, voter ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	t.ring.Append(EvRepairReq, int64(now), uint32(poller), uint32(voter), uint32(au), pollID, int32(block), 0)
	t.mu.Lock()
	if a := t.inflight[pollID]; a != nil {
		a.repairReqAt = now
	}
	t.mu.Unlock()
}

// RepairApplied implements protocol.Observer.
func (t *Telemetry) RepairApplied(peer ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	t.ring.Append(EvRepair, int64(now), uint32(peer), 0, uint32(au), pollID, int32(block), 0)
	t.mu.Lock()
	if a := t.inflight[pollID]; a != nil {
		a.span.Repairs++
		if a.repairReqAt != 0 {
			t.RepairTime.Observe(int64(now - a.repairReqAt))
			a.repairReqAt = 0
		}
	}
	t.mu.Unlock()
}

// PollConcluded implements protocol.Observer: it closes the span, records
// the poll-duration (and tally-time) samples, and retires the span to the
// recent table.
func (t *Telemetry) PollConcluded(peer ids.PeerID, au content.AUID, pollID uint64, outcome protocol.Outcome, started, now sched.Time) {
	t.PollDuration.Observe(int64(now - started))
	t.ring.Append(EvConclude, int64(now), uint32(peer), 0, uint32(au), pollID, 0, uint8(outcome))
	t.mu.Lock()
	a := t.inflight[pollID]
	if a == nil {
		// Poll started before the recorder attached: synthesize the span
		// from the conclusion event alone.
		a = t.getAgg()
		a.span = PollSpan{PollID: pollID, Peer: uint32(peer), AU: uint32(au), StartedNs: int64(started)}
	} else {
		delete(t.inflight, pollID)
	}
	if a.tallyAt != 0 {
		t.TallyTime.Observe(int64(now - a.tallyAt))
	}
	a.span.ConcludedNs = int64(now)
	a.span.DurationNs = int64(now - started)
	a.span.Outcome = outcome.String()
	t.recent.push(a.span)
	t.free = append(t.free, a)
	t.mu.Unlock()
}

// Alarm implements protocol.Observer.
func (t *Telemetry) Alarm(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	t.ring.Append(EvAlarm, int64(now), uint32(peer), 0, uint32(au), pollID, 0, 0)
}

// VoteSupplied implements protocol.Observer (the voter side).
func (t *Telemetry) VoteSupplied(voter, poller ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	t.ring.Append(EvVoteOut, int64(now), uint32(voter), uint32(poller), uint32(au), pollID, 0, 0)
	t.mu.Lock()
	t.votes.push(VoteRecord{PollID: pollID, Voter: uint32(voter), Poller: uint32(poller), AU: uint32(au), TNs: int64(now)})
	t.mu.Unlock()
}

// DamageNoticed records a scrub-detected damage event in the flight
// recorder (wired from the node's scrub OnDamage path).
func (t *Telemetry) DamageNoticed(peer ids.PeerID, au content.AUID, block int, now sched.Time) {
	t.ring.Append(EvDamage, int64(now), uint32(peer), 0, uint32(au), 0, int32(block), 0)
}

// Polls returns the recently concluded poll spans, oldest first, followed by
// the currently in-flight spans (empty Outcome).
func (t *Telemetry) Polls() []PollSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.recent.appendTo(make([]PollSpan, 0, len(t.recent.buf)+len(t.inflight)))
	for _, a := range t.inflight {
		out = append(out, a.span)
	}
	return out
}

// Votes returns the recently supplied voter-side votes, oldest first.
func (t *Telemetry) Votes() []VoteRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.votes.appendTo(make([]VoteRecord, 0, len(t.votes.buf)))
}

var (
	_ protocol.Observer     = (*Telemetry)(nil)
	_ protocol.SpanObserver = (*Telemetry)(nil)
)
