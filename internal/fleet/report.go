package fleet

import (
	"fmt"
	"strings"
)

// aggregateKeys maps metric names to the Aggregate fields a fleet
// operator reads first. Summed across up nodes per sample.
var aggregateKeys = []struct {
	field  string
	metric string
}{
	{"polls_succeeded", "lockss_polls_succeeded_total"},
	{"polls_concluded", "lockss_polls_concluded_total"},
	{"alarms", "lockss_alarms_total"},
	{"repairs_received", "lockss_repairs_received_total"},
	{"transport_sent", "lockss_transport_sent_total"},
	{"transport_drops", "lockss_transport_drops_total"},
	{"store_damaged", "lockss_store_blocks_damaged_total"},
	{"store_repaired", "lockss_store_blocks_repaired_total"},
}

// NodeSample is one node's reading in one sweep: the admin package's scalar
// families by exposition name (admin.Read) and its health.
type NodeSample struct {
	Node        int                `json:"node"`
	Down        bool               `json:"down,omitempty"`
	Healthy     bool               `json:"healthy"`
	Damage      int                `json:"damaged_blocks"`
	ActivePolls int                `json:"active_polls"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Sample is one sweep over the population.
type Sample struct {
	At            Duration           `json:"at"`
	NodesUp       int                `json:"nodes_up"`
	NodesDown     int                `json:"nodes_down"`
	NodesHealthy  int                `json:"nodes_healthy"`
	DamagedBlocks float64            `json:"damaged_blocks"`
	Aggregate     map[string]float64 `json:"aggregate"`
	PerNode       []NodeSample       `json:"per_node"`
}

// FaultEvent records one applied (or failed) fault with its randomness
// pinned — the report replays the schedule exactly.
type FaultEvent struct {
	At    Duration `json:"at"`
	Fault Fault    `json:"fault"`
	Desc  string   `json:"desc,omitempty"`
	Error string   `json:"error,omitempty"`
}

// Final is the run verdict the CI gate reads.
type Final struct {
	NodesUp      int  `json:"nodes_up"`
	NodesHealthy int  `json:"nodes_healthy"`
	AllHealthy   bool `json:"all_healthy"`
	// UnrepairedDamage counts damaged blocks across the population at the
	// end: marked damage from the final scrape, overridden by on-disk
	// manifest verification for durable fleets.
	UnrepairedDamage int          `json:"unrepaired_damage"`
	Converged        bool         `json:"converged"`
	PerNode          []NodeSample `json:"per_node"`
}

// Report is the machine-readable record of one fleet run.
type Report struct {
	Nodes    int          `json:"nodes"`
	AUs      int          `json:"aus"`
	Seed     uint64       `json:"seed"`
	Elapsed  Duration     `json:"elapsed"`
	Config   Config       `json:"config"`
	FaultLog []FaultEvent `json:"fault_log"`
	Samples  []Sample     `json:"samples"`
	Final    Final        `json:"final"`
	// Telemetry is the fleet-wide flight-recorder sweep taken right before
	// shutdown: merged latency quantiles and the cross-node poll timeline.
	Telemetry TelemetrySummary `json:"telemetry"`
}

// newSampleAggregate allocates the aggregate map with its known keys.
func newSampleAggregate() map[string]float64 {
	m := make(map[string]float64, len(aggregateKeys))
	for _, k := range aggregateKeys {
		m[k.field] = 0
	}
	return m
}

// Summary renders the human table: the time series of population health and
// repair progress, the fault log, and the verdict.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet run: %d nodes, %d AUs, seed %d, %v\n\n", r.Nodes, r.AUs, r.Seed, r.Elapsed)
	fmt.Fprintf(&b, "%10s %5s %8s %8s %8s %8s %8s %8s\n",
		"t", "up", "healthy", "damaged", "polls", "alarms", "repairs", "drops")
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%10v %5d %8d %8.0f %8.0f %8.0f %8.0f %8.0f\n",
			s.At, s.NodesUp, s.NodesHealthy, s.DamagedBlocks,
			s.Aggregate["polls_concluded"], s.Aggregate["alarms"],
			s.Aggregate["repairs_received"], s.Aggregate["transport_drops"])
	}
	if len(r.FaultLog) > 0 {
		b.WriteString("\nfaults:\n")
		for _, ev := range r.FaultLog {
			if ev.Error != "" {
				fmt.Fprintf(&b, "  %10v %s FAILED: %s\n", ev.At, ev.Fault.Kind, ev.Error)
			} else {
				fmt.Fprintf(&b, "  %10v %s\n", ev.At, ev.Desc)
			}
		}
	}
	r.Telemetry.render(&b)
	verdict := "CONVERGED"
	if !r.Final.Converged {
		verdict = "NOT CONVERGED"
	}
	health := "all healthy"
	if !r.Final.AllHealthy {
		health = fmt.Sprintf("%d/%d healthy", r.Final.NodesHealthy, r.Nodes)
	}
	fmt.Fprintf(&b, "\nfinal: %s — %d unrepaired damaged blocks, %d/%d nodes up, %s\n",
		verdict, r.Final.UnrepairedDamage, r.Final.NodesUp, r.Nodes, health)
	return b.String()
}
