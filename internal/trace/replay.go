package trace

import (
	"fmt"
	"strings"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/wire"
)

// Result is the outcome of replaying a trace: the recorded observable
// outputs, the outputs the replayed state machine produced, and the
// element-wise divergences between them. Report renders it deterministically
// — replaying the same trace twice yields byte-identical reports.
type Result struct {
	// Recorded and Replayed are the normalized output keys, in order.
	Recorded []string
	Replayed []string
	// Divergences lists every mismatch, in order of detection.
	Divergences []string
	// Inputs counts the input records driven through the state machine.
	Inputs int
	// Stats is the replayed peer's counters once the trace is exhausted
	// (not part of Report).
	Stats protocol.PeerStats
}

// Diverged reports whether the replay disagreed with the recording anywhere.
func (r *Result) Diverged() bool { return len(r.Divergences) > 0 }

// Report renders the deterministic replay report.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d input events; %d recorded outputs, %d replayed outputs\n",
		r.Inputs, len(r.Recorded), len(r.Replayed))
	for i, k := range r.Replayed {
		fmt.Fprintf(&b, "out[%d] %s\n", i, k)
	}
	if len(r.Divergences) == 0 {
		b.WriteString("verdict: MATCH\n")
	} else {
		for _, d := range r.Divergences {
			fmt.Fprintf(&b, "divergence: %s\n", d)
		}
		fmt.Fprintf(&b, "verdict: DIVERGED (%d)\n", len(r.Divergences))
	}
	return b.String()
}

// replayEnv is the recorded node's environment with the clock and the
// timers taken from the trace: it embeds the same protocol.RealEffort the
// node does (same seed derivation, same MBF proof arithmetic) and issues the
// same timer-ID sequence, but the clock is pinned to each trace record's
// timestamp and timers fire when the trace says they fired.
type replayEnv struct {
	protocol.RealEffort
	now      sched.Time
	timerSeq uint64
	timers   map[protocol.TimerID]func()
	send     func(to ids.PeerID, m *protocol.Msg)
}

// Now implements protocol.Env.
func (e *replayEnv) Now() sched.Time { return e.now }

// After implements protocol.Env. IDs are issued sequentially from 1 exactly
// as the node's timer table does, so a deterministic re-execution arms timer
// k at the same point the recorded run did and the trace's timer records
// resolve by ID.
func (e *replayEnv) After(d sched.Duration, fn func()) protocol.TimerID {
	e.timerSeq++
	id := protocol.TimerID(e.timerSeq)
	e.timers[id] = fn
	return id
}

// Cancel implements protocol.Env.
func (e *replayEnv) Cancel(id protocol.TimerID) bool {
	_, ok := e.timers[id]
	delete(e.timers, id)
	return ok
}

// Send implements protocol.Env. The message is summarized synchronously —
// the protocol pools the records backing m.
func (e *replayEnv) Send(to ids.PeerID, m *protocol.Msg) { e.send(to, m) }

// replayObserver collects the replayed peer's observable outputs.
type replayObserver struct {
	out *[]string
}

func (o replayObserver) PollConcluded(peer ids.PeerID, au content.AUID, pollID uint64, outcome protocol.Outcome, started, now sched.Time) {
	*o.out = append(*o.out, (&Record{Kind: KindPoll, AU: au, Outcome: outcome.String()}).Key())
}

func (o replayObserver) Alarm(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	*o.out = append(*o.out, (&Record{Kind: KindAlarm, AU: au}).Key())
}

func (o replayObserver) RepairApplied(peer ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	*o.out = append(*o.out, (&Record{Kind: KindRepair, AU: au, Block: block}).Key())
}

func (o replayObserver) VoteSupplied(voter, poller ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
}

// maxDivergences bounds the report; past this the diff is noise.
const maxDivergences = 50

// Replay reconstructs the recorded peer from the trace header, drives it
// through the trace's input records, and diffs its outputs against the
// recorded ones. The error return covers reconstruction failures only;
// behavioral disagreement is reported through Result.Divergences.
func Replay(t *Trace) (*Result, error) {
	res := &Result{Recorded: t.Outputs()}

	env := &replayEnv{
		// The clock starts at StartT immediately: the recorded node
		// bootstrapped (AddAU, SeedGrade) at wall time moments before Start,
		// so grade and schedule timestamps must not predate it by decades.
		now:        sched.Time(t.Header.StartT),
		RealEffort: protocol.NewRealEffort(t.Header.Peer, t.Header.Seed, t.Header.MBF, effort.Seconds(t.Header.EffortUnit)),
		timers:     make(map[protocol.TimerID]func()),
	}
	env.send = func(to ids.PeerID, m *protocol.Msg) {
		res.Replayed = append(res.Replayed,
			(&Record{Kind: KindSend, To: to, MsgType: m.Type.String(), AU: m.AU, PollID: m.PollID}).Key())
	}
	peer, err := protocol.New(t.Header.Peer, &t.Header.Protocol, &t.Header.Costs, env, replayObserver{out: &res.Replayed})
	if err != nil {
		return nil, fmt.Errorf("trace: rebuild peer: %w", err)
	}

	// Bootstrap in header order: AddAU with the recorded reference lists,
	// then grades, then friends — the same call order the recorded node
	// used, so registration order and randomness consumption line up.
	replicas := make(map[content.AUID]content.Replica, len(t.Header.AUs))
	for _, au := range t.Header.AUs {
		rep := content.NewRealReplica(au.Spec(), au.Salt)
		if err := peer.AddAU(rep, au.Refs); err != nil {
			return nil, fmt.Errorf("trace: AddAU %d: %w", au.ID, err)
		}
		replicas[au.ID] = rep
	}
	for _, au := range t.Header.AUs {
		for _, g := range au.Grades {
			peer.SeedGrade(au.ID, g.Peer, reputation.Grade(g.Grade))
		}
	}
	peer.SetFriends(t.Header.Friends)

	// Pre-start silent rot: the bytes differ from the recorded node's
	// on-disk corruption, but both are non-canonical, which is all the
	// vote-hash comparison distinguishes.
	for _, d := range t.Header.Injected {
		replicas[d.AU].Damage(d.Block)
	}

	peer.Start()

	diverge := func(format string, args ...any) {
		if len(res.Divergences) < maxDivergences {
			res.Divergences = append(res.Divergences, fmt.Sprintf(format, args...))
		}
	}

	for i := range t.Events {
		rec := &t.Events[i]
		if !rec.IsInput() {
			continue
		}
		res.Inputs++
		env.now = sched.Time(rec.T)
		switch rec.Kind {
		case KindRecv:
			m, err := wire.Decode(rec.Frame)
			if err != nil {
				// Read validated every frame; reaching here means the caller
				// handed Replay an unvalidated trace.
				return nil, fmt.Errorf("trace: seq %d: frame does not decode: %w", rec.Seq, err)
			}
			peer.Receive(rec.From, m)
		case KindTimer:
			id := protocol.TimerID(rec.Timer)
			fn, ok := env.timers[id]
			if !ok {
				diverge("seq %d: timer %d fired in recording but is not armed in replay", rec.Seq, rec.Timer)
				continue
			}
			delete(env.timers, id)
			fn()
		case KindDamage:
			// Scrub detection: the corruption physically predates this event.
			// Pre-injected blocks are already damaged; for rot the trace did
			// not capture at injection time, apply it now — the detection
			// point is its first protocol-visible moment.
			rep := replicas[rec.AU]
			already := false
			for _, d := range rep.Snapshot() {
				if d.Block == rec.Block {
					already = true
					break
				}
			}
			if !already {
				rep.Damage(rec.Block)
			}
			peer.RaiseAuditPriority(rec.AU)
		}
	}

	// Element-wise diff of the output sequences.
	n := len(res.Recorded)
	if len(res.Replayed) < n {
		n = len(res.Replayed)
	}
	for i := 0; i < n; i++ {
		if res.Recorded[i] != res.Replayed[i] {
			diverge("out[%d]: recorded %q, replayed %q", i, res.Recorded[i], res.Replayed[i])
		}
	}
	for i := n; i < len(res.Recorded); i++ {
		diverge("out[%d]: recorded %q, replay produced nothing", i, res.Recorded[i])
	}
	for i := n; i < len(res.Replayed); i++ {
		diverge("out[%d]: replay produced %q beyond the recording", i, res.Replayed[i])
	}
	res.Stats = peer.Stats()
	return res, nil
}
