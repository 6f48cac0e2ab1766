package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. The layer is the
// part of Name before the first dot and equals the package called.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`    // workload-run identifier shared by all spans of one run
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps the spans of a traced run in memory; they are written out
// once, when the run ends. A nil *recorder records nothing, which is how an
// untraced run pays no tracing cost beyond a nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{t0: time.Now(), run: run} }

// start opens a span under parent (0 for none) and returns its id.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	return id
}

// end closes a span opened by start.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(parent int, name string, fn func()) {
	id := r.start(parent, name)
	fn()
	r.end(id)
}

// snapshot returns the closed spans; a span still open when the run ends
// (an injection never repaired) is dropped.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children (work
// fanned out in parallel) are merged first, so covered time is never counted
// twice and self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered int64
		cur := s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], cur), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// durations returns total span duration by name, in seconds.
func durations(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
	// SelfSeconds is self time summed per layer: where the wall time of the
	// run went, as seen from the calls the benchmark makes.
	SelfSeconds map[string]float64 `json:"self_seconds_by_layer"`
}

func writeTrace(path, workload string, spans []span) error {
	tf := traceFile{Workload: workload, Spans: spans, SelfSeconds: make(map[string]float64)}
	self := selfTimes(spans)
	for _, s := range spans {
		tf.SelfSeconds[s.layer()] += float64(self[s.ID]) / 1e9
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
