package fleet

import (
	"fmt"
	"sort"
	"strings"

	"lockss/internal/telemetry"
)

// QuantileRow is one merged fleet-wide latency distribution.
type QuantileRow struct {
	Metric string  `json:"metric"`
	Count  uint64  `json:"count"`
	Mean   float64 `json:"mean_seconds"`
	P50    float64 `json:"p50_seconds"`
	P95    float64 `json:"p95_seconds"`
	P99    float64 `json:"p99_seconds"`
}

// TimelinePoll is one poll in the cross-node timeline: the initiator's span
// joined — by poll ID — with the votes other nodes recorded supplying to it.
type TimelinePoll struct {
	PollID      uint64                 `json:"poll_id"`
	Poller      uint32                 `json:"poller"`
	AU          uint32                 `json:"au"`
	StartedNs   int64                  `json:"started_ns"`
	ConcludedNs int64                  `json:"concluded_ns,omitempty"`
	DurationNs  int64                  `json:"duration_ns,omitempty"`
	Outcome     string                 `json:"outcome,omitempty"`
	Solicits    int                    `json:"solicits"`
	Votes       int                    `json:"votes"`
	Repairs     int                    `json:"repairs"`
	VoterSpans  []telemetry.VoteRecord `json:"voter_spans"`
}

// TelemetrySummary is the fleet-wide flight-recorder digest in the report:
// merged latency quantiles plus the poll timeline.
type TelemetrySummary struct {
	Quantiles []QuantileRow  `json:"quantiles"`
	Timeline  []TimelinePoll `json:"timeline"`
}

// maxTimelinePolls bounds the report; a long run concludes thousands of
// polls and the timeline keeps the most recent ones.
const maxTimelinePolls = 500

// collectTelemetry condenses every up member's flight recorder, read in
// process: per-family quantiles merged across nodes, and the initiator/voter
// poll timeline. The recorders are safe to read while the nodes run.
func collectTelemetry(members []*member) TelemetrySummary {
	fams := telemetry.HistogramFamilies()
	merged := make([]telemetry.Snapshot, len(fams))
	var spans []telemetry.PollSpan
	votesByPoll := make(map[uint64][]telemetry.VoteRecord)
	for _, m := range members {
		if m.down {
			continue
		}
		tel := m.n.Telemetry()
		for i, fam := range fams {
			merged[i].Merge(fam.Of(tel).Snapshot())
		}
		spans = append(spans, tel.Polls()...)
		for _, v := range tel.Votes() {
			votesByPoll[v.PollID] = append(votesByPoll[v.PollID], v)
		}
	}

	var sum TelemetrySummary
	for i, fam := range fams {
		m := merged[i]
		sum.Quantiles = append(sum.Quantiles, QuantileRow{
			Metric: fam.Name,
			Count:  m.Count,
			Mean:   m.Mean(),
			P50:    m.Quantile(0.50),
			P95:    m.Quantile(0.95),
			P99:    m.Quantile(0.99),
		})
	}

	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartedNs != spans[j].StartedNs {
			return spans[i].StartedNs < spans[j].StartedNs
		}
		return spans[i].PollID < spans[j].PollID
	})
	if len(spans) > maxTimelinePolls {
		spans = spans[len(spans)-maxTimelinePolls:]
	}
	for _, s := range spans {
		tp := TimelinePoll{
			PollID:      s.PollID,
			Poller:      s.Peer,
			AU:          s.AU,
			StartedNs:   s.StartedNs,
			ConcludedNs: s.ConcludedNs,
			DurationNs:  s.DurationNs,
			Outcome:     s.Outcome,
			Solicits:    s.Solicits,
			Votes:       s.Votes,
			Repairs:     s.Repairs,
			VoterSpans:  votesByPoll[s.PollID],
		}
		if tp.VoterSpans == nil {
			tp.VoterSpans = []telemetry.VoteRecord{}
		} else {
			sort.Slice(tp.VoterSpans, func(i, j int) bool { return tp.VoterSpans[i].TNs < tp.VoterSpans[j].TNs })
		}
		sum.Timeline = append(sum.Timeline, tp)
	}
	return sum
}

// render appends the quantile table to a Summary builder.
func (ts *TelemetrySummary) render(b *strings.Builder) {
	if len(ts.Quantiles) == 0 {
		return
	}
	b.WriteString("\nlatency (fleet-wide, seconds):\n")
	fmt.Fprintf(b, "  %-22s %8s %10s %10s %10s %10s\n", "metric", "count", "mean", "p50", "p95", "p99")
	for _, q := range ts.Quantiles {
		fmt.Fprintf(b, "  %-22s %8d %10.4f %10.4f %10.4f %10.4f\n",
			q.Metric, q.Count, q.Mean, q.P50, q.P95, q.P99)
	}
	joined := 0
	for _, tp := range ts.Timeline {
		if len(tp.VoterSpans) > 0 {
			joined++
		}
	}
	fmt.Fprintf(b, "  timeline: %d polls, %d with voter spans joined\n", len(ts.Timeline), joined)
}
