// Package metrics computes the paper's four evaluation metrics from
// protocol events (§6.1):
//
//   - Access failure probability: the fraction of all replicas in the system
//     that are damaged, averaged over time (a time integral of the damaged
//     replica count).
//   - Delay ratio: mean time between successful polls under attack divided
//     by the same measurement without the attack.
//   - Coefficient of friction: average loyal effort per successful poll
//     under attack divided by the same measurement without the attack.
//   - Cost ratio: total attacker effort divided by total defender effort.
//
// A Collector gathers the raw ingredients for one run; ratios against a
// baseline run are taken by the experiment package.
//
// Accumulation is partition-invariant by construction: every time integral
// is kept as integer nanoseconds per replica and only summed (in replica
// registration order) when an aggregate is read. A real-node cluster keeps
// one Collector per node, each observing a disjoint replica set on its own
// actor goroutine, and merges them in node order once the nodes have stopped
// (harness.RunCluster); the aggregates equal those of one Collector that had
// observed every replica.
package metrics

import (
	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// replicaKey identifies one (peer, AU) replica.
type replicaKey struct {
	peer ids.PeerID
	au   content.AUID
}

// noTime marks "no timestamp recorded" in per-replica state.
const noTime = sched.Time(-1)

// repState is the dense per-replica accumulator. Time integrals stay integer
// nanoseconds so their order of accumulation cannot perturb the result.
type repState struct {
	r            content.Replica
	damagedSince sched.Time // noTime when currently undamaged
	damagedNs    int64      // closed damaged-interval total
}

// Collector implements protocol.Observer and accumulates raw statistics for
// one simulation run (or one node of a cluster run; see Merge).
type Collector struct {
	reps []repState // dense, in registration order — the canonical order
	idx  map[replicaKey]int32

	damagedCount int
	lastT        sched.Time

	// Counters.
	Polls         map[protocol.Outcome]uint64
	Alarms        uint64
	DamageEvents  uint64
	RepairsFixed  uint64
	VotesSupplied uint64
}

// NewCollectorSized returns an empty collector preallocated for the expected
// replica count (peers × AUs), so population registration and steady-state
// tracking do not grow the index incrementally.
func NewCollectorSized(replicas int) *Collector {
	if replicas < 0 {
		replicas = 0
	}
	return &Collector{
		reps:  make([]repState, 0, replicas),
		idx:   make(map[replicaKey]int32, replicas),
		Polls: make(map[protocol.Outcome]uint64, 4),
	}
}

// RegisterReplica announces a (peer, AU) replica at simulation start.
func (c *Collector) RegisterReplica(peer ids.PeerID, au content.AUID, r content.Replica) {
	k := replicaKey{peer, au}
	st := repState{r: r, damagedSince: noTime}
	if r.Damaged() {
		st.damagedSince = 0
		c.damagedCount++
	}
	c.idx[k] = int32(len(c.reps))
	c.reps = append(c.reps, st)
}

// touch advances the latest-event watermark.
func (c *Collector) touch(now sched.Time) {
	if now > c.lastT {
		c.lastT = now
	}
}

// OnDamage records a storage damage event (called by the damage injector
// after corrupting the replica).
func (c *Collector) OnDamage(peer ids.PeerID, au content.AUID, now sched.Time) {
	c.touch(now)
	c.DamageEvents++
	i, ok := c.idx[replicaKey{peer, au}]
	if !ok {
		return
	}
	st := &c.reps[i]
	if st.damagedSince == noTime && st.r.Damaged() {
		st.damagedSince = now
		c.damagedCount++
	}
}

// RepairApplied implements protocol.Observer. The poll ID is ignored: the
// paper's metrics are per-replica time integrals, not per-poll spans.
func (c *Collector) RepairApplied(peer ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	c.touch(now)
	i, ok := c.idx[replicaKey{peer, au}]
	if !ok {
		return
	}
	st := &c.reps[i]
	if st.damagedSince != noTime && !st.r.Damaged() {
		st.damagedNs += int64(now - st.damagedSince)
		st.damagedSince = noTime
		c.damagedCount--
		c.RepairsFixed++
	}
}

// PollConcluded implements protocol.Observer.
func (c *Collector) PollConcluded(peer ids.PeerID, au content.AUID, pollID uint64, o protocol.Outcome, started, now sched.Time) {
	c.touch(now)
	c.Polls[o]++
}

// Alarm implements protocol.Observer.
func (c *Collector) Alarm(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	c.Alarms++
}

// VoteSupplied implements protocol.Observer.
func (c *Collector) VoteSupplied(voter, poller ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	c.VotesSupplied++
}

// Merge folds other into c: replicas append in other's registration order,
// counters add. Call on unfinalized collectors, in node order, so the merged
// replica sequence is the one a single collector would have registered; then
// Finalize the merged collector once. other must not be used afterwards.
func (c *Collector) Merge(other *Collector) {
	base := int32(len(c.reps))
	c.reps = append(c.reps, other.reps...)
	for k, i := range other.idx {
		c.idx[k] = base + i
	}
	c.damagedCount += other.damagedCount
	c.touch(other.lastT)
	for o, n := range other.Polls {
		c.Polls[o] += n
	}
	c.Alarms += other.Alarms
	c.DamageEvents += other.DamageEvents
	c.RepairsFixed += other.RepairsFixed
	c.VotesSupplied += other.VotesSupplied
}

// Rebase moves the run's origin from zero to origin, for a run timed by a
// clock that does not start at zero (a real-node cluster's wall clock). Call
// it once, before Finalize. The integrals are differences and do not change;
// the horizon the estimators divide by does. An instant recorded as zero (a
// replica registered already damaged) means the run's start and stays.
func (c *Collector) Rebase(origin sched.Time) {
	c.lastT = max(c.lastT-origin, 0)
	for i := range c.reps {
		st := &c.reps[i]
		if st.damagedSince > 0 {
			st.damagedSince -= origin
		}
	}
}

// Finalize closes open damage intervals at the horizon. Call once, at the
// end of the run.
func (c *Collector) Finalize(end sched.Time) {
	c.touch(end)
	for i := range c.reps {
		st := &c.reps[i]
		if st.damagedSince != noTime {
			st.damagedNs += int64(c.lastT - st.damagedSince)
			st.damagedSince = c.lastT
		}
	}
}

// damagedIntegral sums closed damage intervals in registration order.
func (c *Collector) damagedIntegral() float64 {
	var f float64
	for i := range c.reps {
		f += float64(c.reps[i].damagedNs)
	}
	return f
}

// AccessFailureProbability returns the time-averaged fraction of damaged
// replicas over [0, end] (Finalize must have been called with end).
func (c *Collector) AccessFailureProbability() float64 {
	if len(c.reps) == 0 || c.lastT == 0 {
		return 0
	}
	return c.damagedIntegral() / (float64(len(c.reps)) * float64(c.lastT))
}

// MeanSuccessInterval returns the mean time between successful polls on the
// same replica, in nanoseconds, using the censoring-aware renewal estimator
// (total replica observation time divided by total successes): replicas that
// never complete a poll during an attack lengthen the estimate rather than
// silently dropping out, matching the paper's delay-ratio intent.
func (c *Collector) MeanSuccessInterval() (float64, bool) {
	succ := c.Polls[protocol.OutcomeSuccess]
	if succ == 0 || len(c.reps) == 0 || c.lastT == 0 {
		return 0, false
	}
	return float64(c.lastT) * float64(len(c.reps)) / float64(succ), true
}

// SuccessfulPolls returns the count of successful polls.
func (c *Collector) SuccessfulPolls() uint64 { return c.Polls[protocol.OutcomeSuccess] }

// TotalPolls returns the count of concluded polls of all outcomes.
func (c *Collector) TotalPolls() uint64 {
	var n uint64
	for _, v := range c.Polls {
		n += v
	}
	return n
}

// DamagedNow returns the current number of damaged replicas.
func (c *Collector) DamagedNow() int { return c.damagedCount }

var _ protocol.Observer = (*Collector)(nil)
