// Package fleet spawns and supervises a population of in-process LOCKSS
// nodes on loopback from one declarative config: it drives a scheduled
// fault plan (damage injection, node kill/restart, stalled peers, subnet
// partitions, steady churn) with a seeded PRNG, reads every node's counters
// and health in process on an interval (admin.Read: the scalar families
// /metrics prints, without HTTP), and emits one machine-readable JSON report
// of the run — per-node and aggregate counters over time, repair
// convergence, and the final unrepaired-damage count — plus a human summary
// table. It is how the paper's population-scale attrition settings are
// operated on one machine.
package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"lockss/internal/protocol"
)

// Duration is a time.Duration that marshals as a human string ("1.5s") and
// unmarshals from either a string or integer nanoseconds, so configs read
// naturally.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", x, err)
		}
		*d = Duration(p)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("bad duration %v (want \"1.5s\" or nanoseconds)", v)
	}
	return nil
}

func (d Duration) String() string { return time.Duration(d).String() }

// Fault is one scheduled event in the fault plan. Node numbering is 1-based
// (node IDs); 0 means "pick one with the seeded PRNG" where a node is
// needed. Kinds:
//
//	damage     corrupt one block (Block, or random when -1) of AU on Node;
//	           refused while an in-memory Node is stalled
//	kill       stop Node abruptly (Stop, not drain)
//	restart    rebuild and restart a killed Node from its surviving state
//	stall      wedge Node's actor loop (its samples read unhealthy)
//	unstall    release a stalled Node
//	partition  isolate Subnet from everyone else (addresses blackholed,
//	           live sessions severed on both sides)
//	heal       undo the partition
//
// For, when positive, schedules the inverse event automatically at At+For:
// kill→restart, stall→unstall, partition→heal.
type Fault struct {
	At     Duration `json:"at"`
	Kind   string   `json:"kind"`
	Node   int      `json:"node,omitempty"`
	AU     int      `json:"au,omitempty"`
	Block  int      `json:"block,omitempty"`
	Subnet []int    `json:"subnet,omitempty"`
	For    Duration `json:"for,omitempty"`
}

// Churn, when Interval is positive, kills one random node every Interval
// and restarts it Down later — the paper's steady component of attrition,
// distinct from the targeted faults in the plan.
type Churn struct {
	Interval Duration `json:"interval"`
	Down     Duration `json:"down"`
}

// Config declares one fleet run.
type Config struct {
	// Nodes is the population size. Every node holds every AU and has every
	// other node in its address book.
	Nodes int `json:"nodes"`
	// AUs and AUSize shape the preserved content; every node synthesizes
	// identical replicas from the shared publisher stream.
	AUs       int   `json:"aus"`
	AUSize    int64 `json:"au_size"`
	BlockSize int64 `json:"block_size"`
	// Seed drives every random choice in the run (fault targets, random
	// blocks, churn victims). Same config + same seed = same schedule.
	Seed uint64 `json:"seed"`
	// Duration is total run time; ScrapeInterval paces the metrics sweep.
	Duration       Duration `json:"duration"`
	ScrapeInterval Duration `json:"scrape_interval"`
	// PollInterval is the poll interval the paper's protocol runs at, every
	// other duration derived from it by protocol.Compress, as in lockss-node
	// -interval; below about 1.2 s the waits no longer fit a poll. Quorum and
	// InnerCircle size the polls independently of the population
	// (paper-style fixed quorum); defaults 3 and 5.
	PollInterval Duration `json:"poll_interval"`
	Quorum       int      `json:"quorum,omitempty"`
	InnerCircle  int      `json:"inner_circle,omitempty"`
	// DataDir, when set, backs every node with a durable on-disk store
	// under DataDir/node-N; empty keeps the whole fleet in memory. Durable
	// fleets survive kill/restart with their damage state; in-memory nodes
	// restart with pristine publisher content.
	DataDir string `json:"data_dir,omitempty"`

	Faults []Fault `json:"faults,omitempty"`
	Churn  *Churn  `json:"churn,omitempty"`
}

// withDefaults fills zero fields with a small demo-scale fleet.
func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 10
	}
	if c.AUs == 0 {
		c.AUs = 1
	}
	if c.AUSize == 0 {
		c.AUSize = 128 << 10
	}
	if c.BlockSize == 0 {
		c.BlockSize = 32 << 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = Duration(10 * time.Second)
	}
	if c.ScrapeInterval == 0 {
		c.ScrapeInterval = Duration(2 * time.Second)
	}
	if c.PollInterval == 0 {
		c.PollInterval = Duration(1500 * time.Millisecond)
	}
	if c.Quorum == 0 {
		c.Quorum = 3
	}
	if c.InnerCircle == 0 {
		c.InnerCircle = 5
	}
	return c
}

// maxChurnCycles bounds the kill/restart pairs churn may expand to: the
// whole plan is decided, and held, before the first node boots.
const maxChurnCycles = 10_000

// Validate checks the declared run is realizable. The protocol's own rules
// run on the configuration the nodes would get.
func (c Config) Validate() error {
	if c.Nodes < 3 {
		return fmt.Errorf("fleet: nodes must be >= 3 (got %d)", c.Nodes)
	}
	if c.AUs < 1 || c.AUSize < 1 || c.BlockSize < 1 {
		return fmt.Errorf("fleet: aus/au_size/block_size must be positive")
	}
	if c.Duration <= 0 || c.ScrapeInterval <= 0 {
		return fmt.Errorf("fleet: duration and scrape_interval must be positive")
	}
	if c.InnerCircle >= c.Nodes {
		return fmt.Errorf("fleet: inner_circle %d must be < nodes %d", c.InnerCircle, c.Nodes)
	}
	if _, err := c.protocolConfig(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	for i, f := range c.Faults {
		if err := c.validateFault(f); err != nil {
			return fmt.Errorf("fleet: fault %d: %w", i, err)
		}
	}
	if c.Churn != nil && c.Churn.Interval > 0 {
		if c.Churn.Down <= 0 {
			return fmt.Errorf("fleet: churn.down must be positive")
		}
		if n := c.churnCycles(); n > maxChurnCycles {
			return fmt.Errorf("fleet: churn every %v makes %d kill/restart cycles (max %d)", c.Churn.Interval, n, maxChurnCycles)
		}
	}
	return nil
}

// protocolConfig is the protocol configuration every node runs.
func (c Config) protocolConfig() (protocol.Config, error) {
	return protocol.DemoConfig(time.Duration(c.PollInterval), c.Quorum, c.InnerCircle, c.BlockSize)
}

// blocks is the number of blocks in each AU.
func (c Config) blocks() int {
	return int((c.AUSize-1)/c.BlockSize + 1)
}

// churnCycles counts the churn kills whose restart falls inside the run.
func (c Config) churnCycles() int64 {
	return int64((c.Duration - c.Churn.Down - 1) / c.Churn.Interval)
}

func (c Config) validateFault(f Fault) error {
	if f.Node < 0 || f.Node > c.Nodes {
		return fmt.Errorf("node %d out of range 0..%d", f.Node, c.Nodes)
	}
	switch f.Kind {
	case "damage":
		if f.AU < 1 || f.AU > c.AUs {
			return fmt.Errorf("damage AU %d out of range 1..%d", f.AU, c.AUs)
		}
		if f.Block < -1 || f.Block >= c.blocks() {
			return fmt.Errorf("damage block %d out of range 0..%d (or -1 for random)", f.Block, c.blocks()-1)
		}
		if f.For != 0 {
			return fmt.Errorf("damage has no inverse; drop \"for\"")
		}
	case "kill", "stall":
		// Node 0 = random is fine; no extra fields.
	case "restart", "unstall":
		// The inverse of an earlier fault: it must name that fault's node.
		if f.Node == 0 {
			return fmt.Errorf("%s needs a node", f.Kind)
		}
	case "partition", "heal":
		if f.Kind == "partition" && len(f.Subnet) == 0 {
			return fmt.Errorf("partition needs a subnet")
		}
		for _, n := range f.Subnet {
			if n < 1 || n > c.Nodes {
				return fmt.Errorf("subnet node %d out of range 1..%d", n, c.Nodes)
			}
		}
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	return nil
}

// LoadConfig reads a fleet config file; see parseConfig.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	c, err := parseConfig(b)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// parseConfig decodes a fleet config. Lines whose first non-blank characters
// are "//" are comments; everything else must be JSON. Defaults are filled
// and the result validated.
func parseConfig(data []byte) (Config, error) {
	var b strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "//") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	var c Config
	dec := json.NewDecoder(strings.NewReader(b.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("fleet: parse: %w", err)
	}
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// schedule resolves the fault plan into a time-ordered event list: churn is
// expanded into kill/restart pairs, "for" sugar into inverse events, and
// every random choice (node 0, block -1) pinned by the seeded PRNG — so the
// whole run is decided before the first node boots.
func (c Config) schedule(rng *rand.Rand) []Fault {
	var out []Fault
	pin := func(f Fault) Fault {
		if f.Node == 0 {
			switch f.Kind {
			case "damage", "kill", "stall":
				f.Node = 1 + rng.Intn(c.Nodes)
			}
		}
		if f.Kind == "damage" && f.Block < 0 {
			f.Block = rng.Intn(c.blocks())
		}
		return f
	}
	for _, f := range c.Faults {
		f = pin(f)
		out = append(out, f)
		if f.For > 0 {
			inv := Fault{At: f.At + f.For, Node: f.Node, Subnet: f.Subnet}
			switch f.Kind {
			case "kill":
				inv.Kind = "restart"
			case "stall":
				inv.Kind = "unstall"
			case "partition":
				inv.Kind = "heal"
			}
			if inv.Kind != "" {
				out = append(out, inv)
			}
		}
	}
	if c.Churn != nil && c.Churn.Interval > 0 {
		for k := int64(1); k <= c.churnCycles(); k++ {
			at := Duration(k) * c.Churn.Interval
			victim := 1 + rng.Intn(c.Nodes)
			out = append(out,
				Fault{At: at, Kind: "kill", Node: victim},
				Fault{At: at + c.Churn.Down, Kind: "restart", Node: victim})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
