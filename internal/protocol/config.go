package protocol

import (
	"fmt"
	"math"
	"time"

	"lockss/internal/reputation"
	"lockss/internal/sched"
)

// Config holds every protocol operating parameter. DefaultConfig matches the
// paper's evaluation operating point (§6.3); the ablation benches flip the
// boolean defenses.
type Config struct {
	// Quorum is the minimum number of tallied inner-circle votes for a poll
	// to be valid (paper: 10).
	Quorum int
	// InnerCircle is the number of inner-circle invitees, typically twice
	// the quorum (paper: 20).
	InnerCircle int
	// MaxDisagree is the landslide margin: a landslide exists when the
	// losing side has at most this many votes (paper: 3).
	MaxDisagree int
	// OuterCircle is the number of outer-circle (discovery) invitees
	// sampled from nominations.
	OuterCircle int
	// Nominations is how many reference-list peers a voter offers per vote.
	Nominations int

	// PollInterval is the duration of one poll: a new poll is scheduled to
	// conclude one interval into the future (paper: 3 months).
	PollInterval sched.Duration
	// PollJitter desynchronizes poll schedules across AUs and peers
	// (fractional jitter on the first poll's phase).
	PollJitter float64

	// Solicitation timeline, as fractions of the poll interval:
	// inner invitations are sent at random instants in [0, SolicitFrac],
	// retries run until RetryFrac, outer invitations span
	// [OuterStartFrac, OuterEndFrac], evaluation starts at EvalFrac.
	SolicitFrac    float64
	RetryFrac      float64
	OuterStartFrac float64
	OuterEndFrac   float64
	EvalFrac       float64

	// VoteWindow is the allowance a voter gets to schedule and compute the
	// vote after accepting.
	VoteWindow sched.Duration
	// AckTimeout bounds the wait for a PollAck.
	AckTimeout sched.Duration
	// ProofTimeout bounds the voter's wait for the PollProof after
	// accepting; the introductory effort must cover this exposure.
	ProofTimeout sched.Duration
	// VoteSlack extends the poller's wait for a vote beyond VoteBy.
	VoteSlack sched.Duration
	// ReceiptSlack extends the voter's wait for the evaluation receipt
	// beyond the poll deadline.
	ReceiptSlack sched.Duration
	// RepairTimeout bounds each repair round trip.
	RepairTimeout sched.Duration

	// MaxSolicitAttempts bounds invitations per invitee per poll (silent
	// drops look like losses and are retried).
	MaxSolicitAttempts int
	// MaxRepairAttempts bounds repair sources tried per damaged block.
	MaxRepairAttempts int
	// MaxRepairsServed caps blocks a voter supplies per poll it voted in.
	MaxRepairsServed int
	// FrivolousRepairProb is the per-poll probability of requesting a
	// repair for an agreeing block, discouraging targeted free-riding via
	// refusal of repairs.
	FrivolousRepairProb float64

	// RefListTarget is the reference list size the peer replenishes toward
	// (from friends) after each poll; RefListMax trims above.
	RefListTarget int
	RefListMax    int

	// ConsiderRateFactor multiplies the peer's own outbound invitation rate
	// to derive the self-clocked cap on invitations considered per AU
	// (paper: 4x). ConsiderBurst is the token bucket depth.
	ConsiderRateFactor float64
	ConsiderBurst      float64

	// Reputation / admission parameters.
	DropUnknown     float64
	DropDebt        float64
	Refractory      sched.Duration
	GradeDecay      sched.Duration
	MaxIntros       int
	Introductions   bool
	Desynchronize   bool
	EffortBalancing bool

	// AdaptiveAcceptance enables the paper's §9 proposal: loyal peers
	// modulate the probability of accepting invitations from unknown or
	// in-debt pollers according to recent busyness, raising the marginal
	// effort an attacker needs to increase a victim's load. Disabled by
	// default (it is future work in the paper; we implement it for the
	// ablation study).
	AdaptiveAcceptance bool
	// AdaptiveGain scales recent busy-fraction into a refusal probability
	// (capped at 0.95).
	AdaptiveGain float64

	// BlockSize is the audit/repair granularity.
	BlockSize int64
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	day := 24 * time.Hour
	return Config{
		Quorum:              10,
		InnerCircle:         20,
		MaxDisagree:         3,
		OuterCircle:         10,
		Nominations:         8,
		PollInterval:        90 * 24 * time.Hour,
		PollJitter:          0.9,
		SolicitFrac:         0.50,
		RetryFrac:           0.70,
		OuterStartFrac:      0.55,
		OuterEndFrac:        0.80,
		EvalFrac:            0.85,
		VoteWindow:          7 * day,
		AckTimeout:          day / 4,
		ProofTimeout:        day / 4,
		VoteSlack:           day,
		ReceiptSlack:        2 * day,
		RepairTimeout:       day,
		MaxSolicitAttempts:  4,
		MaxRepairAttempts:   3,
		MaxRepairsServed:    8,
		FrivolousRepairProb: 0.05,
		RefListTarget:       40,
		RefListMax:          60,
		ConsiderRateFactor:  4.0,
		ConsiderBurst:       8,
		DropUnknown:         0.90,
		DropDebt:            0.80,
		Refractory:          day,
		GradeDecay:          90 * 24 * time.Hour,
		MaxIntros:           40,
		Introductions:       true,
		Desynchronize:       true,
		EffortBalancing:     true,
		BlockSize:           1 << 20,
	}
}

// waitFloor is the shortest wait Compress produces: a loopback round trip
// (p99 1.3 ms on a demo cluster), a demo proof verification (µs) and an actor
// loop busy hashing (cluster-audit's p95 Inspect round trip, 9.4 ms).
const waitFloor = 15 * time.Millisecond

// Compress returns cfg at another poll interval. Every duration keeps its
// ratio to cfg.PollInterval; the six waits are then stretched by the one
// factor that lifts the shortest to waitFloor, if it is below, which keeps
// every ordering among them. Refractory and GradeDecay are admission policy
// and keep the plain ratio. An interval too short for the floor is an error.
func Compress(cfg Config, interval time.Duration) (Config, error) {
	out := cfg
	out.PollInterval = interval
	ratio := func(d sched.Duration) float64 { return float64(d) * float64(interval) / float64(cfg.PollInterval) }
	// The six waits, then the two policy durations.
	durations := [...]*sched.Duration{&out.VoteWindow, &out.AckTimeout, &out.ProofTimeout,
		&out.VoteSlack, &out.ReceiptSlack, &out.RepairTimeout, &out.Refractory, &out.GradeDecay}
	stretch := 1.0
	for _, w := range durations[:6] {
		stretch = math.Max(stretch, float64(waitFloor)/ratio(*w))
	}
	fits := true
	for i, d := range durations {
		x := ratio(*d)
		if i < 6 {
			x *= stretch
		}
		x = math.Round(x)
		fits = fits && x >= 0 && x < math.MaxInt64
		*d = time.Duration(x)
	}
	switch {
	case !fits:
		return Config{}, fmt.Errorf("protocol: cannot compress a %v poll interval to %v", cfg.PollInterval, interval)
	case float64(out.VoteWindow) > (out.EvalFrac-out.SolicitFrac)*float64(interval):
		return Config{}, fmt.Errorf("protocol: poll interval %v too short: its %v vote window (waits ×%.2f the paper's ratios, for a %v floor) overruns the poll",
			interval, out.VoteWindow, stretch, waitFloor)
	}
	return out, out.Validate()
}

// Stretch is how far c's waits exceed the paper's ratios to the poll
// interval: the factor Compress stretched them by, 1 for none.
func Stretch(c Config) float64 {
	paper := DefaultConfig()
	return float64(c.AckTimeout) / float64(paper.AckTimeout) * float64(paper.PollInterval) / float64(c.PollInterval)
}

// DemoConfig is the operating point of a real-node demo (loopback clusters,
// the fleet, lockss-node, cluster tests): the paper's protocol compressed to
// a poll interval of seconds, with a paper-style fixed quorum independent of
// the population size. The error is Compress's.
func DemoConfig(interval time.Duration, quorum, inner int, blockSize int64) (Config, error) {
	cfg := DefaultConfig()
	cfg.FrivolousRepairProb = 0
	cfg.Quorum = quorum
	cfg.InnerCircle = inner
	cfg.MaxDisagree = (quorum - 1) / 2
	cfg.OuterCircle = 2
	cfg.Nominations = 3
	cfg.RefListTarget = max(inner, 2*quorum)
	cfg.RefListMax = cfg.RefListTarget + 5
	cfg.ConsiderBurst = 64
	cfg.BlockSize = blockSize
	return Compress(cfg, interval)
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Quorum <= 0:
		return fmt.Errorf("protocol: quorum must be positive, got %d", c.Quorum)
	case c.InnerCircle < c.Quorum:
		return fmt.Errorf("protocol: inner circle %d below quorum %d", c.InnerCircle, c.Quorum)
	case c.MaxDisagree < 0 || c.MaxDisagree >= c.Quorum:
		return fmt.Errorf("protocol: landslide margin %d incompatible with quorum %d", c.MaxDisagree, c.Quorum)
	case c.InnerCircle+c.OuterCircle > math.MaxInt16:
		return fmt.Errorf("protocol: %d invitees per poll, at most %d", c.InnerCircle+c.OuterCircle, math.MaxInt16)
	case c.PollInterval <= 0:
		return fmt.Errorf("protocol: non-positive poll interval")
	case c.SolicitFrac <= 0 || c.SolicitFrac > 1 || c.EvalFrac <= c.OuterEndFrac || c.EvalFrac > 1:
		return fmt.Errorf("protocol: inconsistent poll timeline fractions")
	case c.VoteWindow <= 0:
		return fmt.Errorf("protocol: non-positive vote window")
	case c.BlockSize <= 0:
		return fmt.Errorf("protocol: non-positive block size")
	}
	return nil
}

// reputationParams converts the admission fields for the reputation package.
func (c Config) reputationParams() reputation.Params {
	return reputation.Params{
		DropUnknown:          c.DropUnknown,
		DropDebt:             c.DropDebt,
		Refractory:           c.Refractory,
		Decay:                c.GradeDecay,
		MaxIntroductions:     c.MaxIntros,
		IntroductionsEnabled: c.Introductions,
	}
}
