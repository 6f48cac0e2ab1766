package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lockss/internal/adversary"
	"lockss/internal/world"
)

// This file is the declarative scenario API: instead of a closed set of
// hardcoded figure generators, an experiment is a Scenario value — a base
// configuration, config mutators, an attack factory, and sweep axes over
// any numeric or duration parameter — registered under a name and executed
// by RunScenario, which fans the sweep grid across the worker-pool engine
// with full context cancellation. Every figure, table, ablation and
// extension of the paper's evaluation is itself a registered Scenario, and
// the registry is the only way to run one.

// ConfigMutator adjusts a world configuration in place before the sweep
// axes apply.
type ConfigMutator func(*world.Config)

// Axis is one swept dimension of a scenario grid. Values may be any
// numeric parameter — probabilities, counts, day-denominated durations, or
// indices into a table of richer settings consumed by Apply and the attack
// factory.
type Axis struct {
	// Name labels the axis in generic tables and progress lines.
	Name string
	// Values are the swept settings. For scale-dependent axes leave it nil
	// and set ValuesFor.
	Values []float64
	// ValuesFor, if non-nil, derives the swept settings from the options
	// (e.g. coarser grids at tiny scale). It takes precedence over Values.
	ValuesFor func(o Options) []float64
	// Apply folds one value into the config. May be nil for axes consumed
	// only by the attack factory, Filter, or per-point hooks.
	Apply func(cfg *world.Config, v float64)
	// Format renders a value for labels; nil means %g.
	Format func(v float64) string
}

// values resolves the axis settings for a generation.
func (a Axis) values(o Options) []float64 {
	if a.ValuesFor != nil {
		return a.ValuesFor(o)
	}
	return a.Values
}

// format renders one axis value.
func (a Axis) format(v float64) string {
	if a.Format != nil {
		return a.Format(v)
	}
	return fmt.Sprintf("%g", v)
}

// Point identifies one cell of a scenario's sweep grid.
type Point struct {
	// Index is the cell's position in the scenario's point list.
	Index int `json:"index"`
	// Coords are the per-axis value indices (empty for axis-less scenarios).
	Coords []int `json:"coords,omitempty"`
	// Values are the per-axis values, parallel to Coords.
	Values []float64 `json:"values,omitempty"`
}

// At returns the value of axis i, or 0 when the point has fewer axes.
func (p Point) At(i int) float64 {
	if i < 0 || i >= len(p.Values) {
		return 0
	}
	return p.Values[i]
}

// PointResult is the structured outcome of one grid cell.
type PointResult struct {
	Point Point `json:"point"`
	// Stats is the cell's (possibly attacked) run outcome.
	Stats RunStats `json:"stats"`
	// Baseline is the attack-free twin when the scenario compares.
	Baseline *RunStats `json:"baseline,omitempty"`
	// Cmp relates Stats to Baseline when the scenario compares.
	Cmp *Comparison `json:"comparison,omitempty"`
}

// Result is a completed scenario run: one PointResult per grid cell, in
// grid order (first axis slowest, last axis fastest).
type Result struct {
	Scenario string        `json:"scenario"`
	Points   []PointResult `json:"points"`
}

// At returns the point result with the given per-axis coordinates, or nil.
func (r *Result) At(coords ...int) *PointResult {
	for i := range r.Points {
		p := &r.Points[i]
		if len(p.Point.Coords) != len(coords) {
			continue
		}
		match := true
		for j, c := range coords {
			if p.Point.Coords[j] != c {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	return nil
}

// Scenario declaratively specifies an experiment: how to build the world,
// what to sweep, what attack to install, and how to render the outcome.
// The zero value of every optional field means "the default": scale-derived
// base config, one layer, scale-default seeds, no attack, generic table.
type Scenario struct {
	// Name registers the scenario; lowercase, hyphenated by convention.
	Name string
	// Description is the one-line summary shown by listings.
	Description string

	// Base builds the starting configuration; nil means the scale default
	// (the population Options.Scale selects).
	Base func(o Options) world.Config
	// Mutators adjust the base configuration, in order, before axes apply.
	Mutators []ConfigMutator
	// Axes define the sweep grid as a cross product, first axis slowest.
	// A scenario with no axes runs a single point.
	Axes []Axis
	// Filter, if non-nil, keeps only grid cells it returns true for.
	Filter func(o Options, pt Point) bool

	// Attack builds a fresh adversary for one run of a point: it is invoked
	// once per run it is installed on, once more to key the engine's memo,
	// plus one probe per point whose result decides — and is discarded —
	// whether the point runs attack-free. nil, or a nil return from the
	// probe, runs the point attack-free (and lets its run memoize as a
	// baseline). The factory must therefore be a pure function of its
	// arguments.
	Attack func(o Options, cfg world.Config, pt Point) adversary.Adversary

	// Seeds overrides the scale-default seed count when nonzero.
	Seeds int
	// Layered, if non-nil, flags the points that model the paper's large
	// collection: each runs o.layersFor() stacked layers at a single seed,
	// as the paper's 600-AU technique does (§6.3).
	Layered func(o Options, pt Point) bool

	// Compare also runs each point attack-free and derives the paper's
	// comparison metrics into PointResult.Baseline and PointResult.Cmp.
	Compare bool

	// Tables renders a completed run; nil selects the generic renderer.
	Tables func(o Options, res *Result) []*Table
}

// --- Registry ---------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = make(map[string]*Scenario)
)

// Register adds a scenario to the process-wide registry. Names must be
// non-empty and unique.
func Register(s *Scenario) error {
	if s == nil {
		return fmt.Errorf("experiment: Register(nil)")
	}
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("experiment: scenario needs a name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("experiment: scenario %q already registered", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// mustRegister registers the built-in scenarios at init.
func mustRegister(s *Scenario) *Scenario {
	if err := Register(s); err != nil {
		panic(err)
	}
	return s
}

// Lookup returns the registered scenario with the given name.
func Lookup(name string) (*Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// List returns every registered scenario, sorted by name.
func List() []*Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- Execution --------------------------------------------------------------

// Points expands the scenario's axes into its point list for the given
// options. External drivers (internal/harness) use it to execute points on
// alternative backends.
func (s *Scenario) Points(o Options) ([]Point, error) {
	vals := make([][]float64, len(s.Axes))
	n := 1
	for i, ax := range s.Axes {
		vals[i] = ax.values(o)
		if len(vals[i]) == 0 {
			return nil, fmt.Errorf("experiment: scenario %q axis %q has no values", s.Name, ax.Name)
		}
		n *= len(vals[i])
	}
	points := make([]Point, 0, n)
	// Every point's Coords and Values are carved out of two slabs, each
	// sub-slice capped so that a caller's append cannot run into its
	// neighbour. An axis-less scenario keeps Coords nil.
	axes := len(s.Axes)
	var coordSlab []int
	if axes > 0 {
		coordSlab = make([]int, n*axes)
	}
	valueSlab := make([]float64, n*axes)
	coords := make([]int, axes)
	for i := 0; i < n; i++ {
		lo, hi := i*axes, (i+1)*axes
		pt := Point{Coords: coordSlab[lo:hi:hi], Values: valueSlab[lo:hi:hi]}
		copy(pt.Coords, coords)
		for j, c := range pt.Coords {
			pt.Values[j] = vals[j][c]
		}
		if s.Filter == nil || s.Filter(o, pt) {
			pt.Index = len(points)
			points = append(points, pt)
		}
		// Odometer increment, last axis fastest.
		for j := len(coords) - 1; j >= 0; j-- {
			coords[j]++
			if coords[j] < len(vals[j]) {
				break
			}
			coords[j] = 0
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("experiment: scenario %q has an empty grid", s.Name)
	}
	return points, nil
}

// ConfigAt builds the world configuration for one grid point: base, then
// mutators, then axis applications. External drivers may further override the
// returned value before running it.
func (s *Scenario) ConfigAt(o Options, pt Point) world.Config {
	var cfg world.Config
	if s.Base != nil {
		cfg = s.Base(o)
	} else {
		cfg = o.BaseWorld()
	}
	for _, m := range s.Mutators {
		m(&cfg)
	}
	for i, ax := range s.Axes {
		if ax.Apply != nil {
			ax.Apply(&cfg, pt.Values[i])
		}
	}
	return cfg
}

// shape resolves one point's seeds and layers.
func (s *Scenario) shape(o Options, pt Point) (seeds, layers int) {
	if s.Layered != nil && s.Layered(o, pt) {
		return 1, o.layersFor()
	}
	if s.Seeds != 0 {
		return s.Seeds, 1
	}
	return o.seeds(), 1
}

// Render renders a completed result with the scenario's table renderer (the
// custom one when defined, the generic table otherwise).
func (s *Scenario) Render(o Options, res *Result) []*Table {
	if s.Tables != nil {
		return s.Tables(o, res)
	}
	return []*Table{s.GenericTable(o, res)}
}

// runPoint executes one grid cell on the engine.
func (s *Scenario) runPoint(ctx context.Context, e *Engine, o Options, pt Point) (PointResult, error) {
	cfg := s.ConfigAt(o, pt)
	seeds, layers := s.shape(o, pt)
	run := func(mk func() adversary.Adversary) (RunStats, error) {
		return e.Run(ctx, cfg, mk, seeds, layers)
	}
	// Probe the attack factory once: a nil adversary means the point runs
	// attack-free (and its run memoizes as a baseline).
	var mk func() adversary.Adversary
	if s.Attack != nil && s.Attack(o, cfg, pt) != nil {
		mk = func() adversary.Adversary { return s.Attack(o, cfg, pt) }
	}
	pr := PointResult{Point: pt}
	var err error
	if mk != nil {
		// Attack first: attack runs are mostly distinct and fill the pool
		// while the shared baseline's single memo flight is in progress.
		if pr.Stats, err = run(mk); err != nil {
			return PointResult{}, err
		}
	}
	if mk == nil || s.Compare {
		baseline, err := run(nil)
		if err != nil {
			return PointResult{}, err
		}
		if mk == nil {
			pr.Stats = baseline
		}
		if s.Compare {
			pr.Baseline = &baseline
			cmp := Compare(pr.Stats, baseline)
			pr.Cmp = &cmp
		}
	}
	return pr, nil
}

// RunScenario executes a scenario's full sweep grid across the worker-pool
// engine and returns the structured per-point results in grid order. The
// context cancels promptly: runs not yet started are skipped and ctx.Err()
// is returned (in-flight simulations finish and are discarded).
func RunScenario(ctx context.Context, spec *Scenario, o Options) (*Result, error) {
	if spec == nil {
		return nil, fmt.Errorf("experiment: RunScenario(nil scenario)")
	}
	ctx = orBackground(ctx)
	points, err := spec.Points(o)
	if err != nil {
		return nil, err
	}
	e := o.engine()
	prs, err := gather(len(points), func(i int) (PointResult, error) {
		return spec.runPoint(ctx, e, o, points[i])
	}, func(i int, pr PointResult) {
		if o.Progress != nil {
			o.Progress("%s", spec.progressLine(pr, len(points)))
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Scenario: spec.Name, Points: prs}, nil
}

// progressLine renders one per-point progress line: the point's axis
// values, access failure and successful polls, and the comparison ratios
// when the point has them.
func (s *Scenario) progressLine(pr PointResult, total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d/%d", s.Name, pr.Point.Index+1, total)
	for i, ax := range s.Axes {
		fmt.Fprintf(&b, " %s=%s", ax.Name, ax.format(pr.Point.At(i)))
	}
	fmt.Fprintf(&b, " afp=%s polls-ok=%.0f", fmtProb(pr.Stats.AccessFailure), pr.Stats.SuccessfulPolls)
	if c := pr.Cmp; c != nil {
		fmt.Fprintf(&b, " delay=%s friction=%s cost=%s",
			fmtRatio(c.DelayRatio), fmtRatio(c.Friction), fmtRatio(c.CostRatio))
	}
	return b.String()
}

// Run executes the scenario and renders its tables — the custom renderer
// when the scenario defines one, the generic table otherwise.
func (s *Scenario) Run(ctx context.Context, o Options) ([]*Table, error) {
	res, err := RunScenario(ctx, s, o)
	if err != nil {
		return nil, err
	}
	return s.Render(o, res), nil
}

// GenericTable renders a result with the generic per-point renderer
// regardless of the scenario's custom Tables hook: one row per point — axis
// values, the standard run metrics, and comparison ratios when the scenario
// compares. Custom renderers may assume comparison data that alternative
// execution backends (baseline-only cluster runs) do not produce; the
// generic renderer tolerates its absence, so cross-backend drivers render
// both sides through it.
func (s *Scenario) GenericTable(o Options, res *Result) *Table {
	t := &Table{ID: s.Name, Title: s.Description}
	if t.Title == "" {
		t.Title = "scenario sweep"
	}
	for _, ax := range s.Axes {
		t.Columns = append(t.Columns, ax.Name)
	}
	t.Columns = append(t.Columns, "access-failure", "mean-gap(days)", "polls-ok", "alarms")
	if s.Compare {
		t.Columns = append(t.Columns, "delay-ratio", "coeff-friction", "cost-ratio")
	}
	for _, pr := range res.Points {
		var row []Cell
		for i, ax := range s.Axes {
			row = append(row, Cell{Text: ax.format(pr.Point.At(i)), Value: pr.Point.At(i)})
		}
		row = append(row,
			Prob(pr.Stats.AccessFailure),
			Num("%.1f", pr.Stats.MeanSuccessGap),
			Num("%.0f", pr.Stats.SuccessfulPolls),
			Num("%.0f", pr.Stats.Alarms))
		if s.Compare {
			var c Comparison
			if pr.Cmp != nil {
				c = *pr.Cmp
			}
			row = append(row, Ratio(c.DelayRatio), Ratio(c.Friction), Ratio(c.CostRatio))
		}
		t.AddCells(row...)
	}
	return t
}
