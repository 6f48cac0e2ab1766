package trace

import (
	"fmt"
	"slices"
	"strings"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/sim"
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
// node does (same seed derivation, same MBF proof arithmetic) and queues its
// timers on a sim.Engine as the node does, but the clock is pinned to each
// trace record's timestamp and a timer fires when the trace says it fired.
// The engine's clock never runs; it issues IDs and knows each timer's instant.
type replayEnv struct {
	protocol.RealEffort
	now    sched.Time
	timers *sim.Engine
	send   func(to ids.PeerID, m *protocol.Msg)
}

// Now implements protocol.Env.
func (e *replayEnv) Now() sched.Time { return e.now }

// After implements protocol.Env. A deterministic re-execution arms, cancels
// and fires in the recorded order, so the engine issues the recorded IDs. An
// instant a forged trace pushes below zero is clamped rather than refused.
func (e *replayEnv) After(d sched.Duration, fn func()) protocol.TimerID {
	return protocol.TimerID(e.timers.At(max(e.now+sched.Time(max(d, 0)), 0), fn))
}

// Cancel implements protocol.Env.
func (e *replayEnv) Cancel(id protocol.TimerID) bool { return e.timers.Cancel(sim.EventID(id)) }

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
		// The clock starts at StartT: the recorded node's clock read its
		// bootstrap instant from New through Start, so AddAU, SeedGrade and
		// Start all saw StartT.
		now:        sched.Time(t.Header.StartT),
		RealEffort: protocol.NewRealEffort(t.Header.Peer, t.Header.Seed, t.Header.MBF, effort.Seconds(t.Header.EffortUnit)),
		timers:     sim.NewEngine(),
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
		// The node fires every timer due by a turn's instant before the
		// turn's input, each at its own instant: nothing pending here may be
		// due before this record, nor at it unless the record fires it.
		if at, ok := env.timers.Next(); ok && (at < env.now || at == env.now && rec.Kind != KindTimer) {
			diverge("seq %d: a timer due at %d in replay had not fired by %d in recording", rec.Seq, at, rec.T)
		}
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
			next, _ := env.timers.Next()
			fn := env.timers.Take(sim.EventID(rec.Timer))
			if fn == nil {
				diverge("seq %d: timer %d fired in recording but is not armed in replay", rec.Seq, rec.Timer)
				continue
			}
			if next > env.now {
				diverge("seq %d: timer %d fired at %d in recording, before it is due in replay", rec.Seq, rec.Timer, rec.T)
			}
			fn()
		case KindDamage:
			// Scrub detection: the corruption physically predates this event.
			// Pre-injected blocks are already damaged; for rot the trace did
			// not capture at injection time, apply it now — the detection
			// point is its first protocol-visible moment.
			rep := replicas[rec.AU]
			if !slices.ContainsFunc(rep.Snapshot(), func(d content.DamageEntry) bool { return d.Block == rec.Block }) {
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
