package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"lockss/internal/promtext"
	"lockss/internal/telemetry"
)

// telemetryFamilies names the histogram families the fleet merges, in report
// order: every family a node's recorder keeps.
var telemetryFamilies = func() []string {
	var names []string
	for _, fam := range telemetry.HistogramFamilies() {
		names = append(names, fam.Name)
	}
	return names
}()

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
	Quantiles    []QuantileRow  `json:"quantiles"`
	Timeline     []TimelinePoll `json:"timeline"`
	ScrapeErrors []string       `json:"scrape_errors,omitempty"`
}

// maxTimelinePolls bounds the report; a long run concludes thousands of
// polls and the timeline keeps the most recent ones.
const maxTimelinePolls = 500

// nodeTelemetry is one node's scraped telemetry.
type nodeTelemetry struct {
	id    int
	hists map[string]telemetry.Snapshot
	polls []telemetry.PollSpan
	votes []telemetry.VoteRecord
}

// scrapeNodeTelemetry rebuilds one node's histogram families from its
// already-scraped /metrics and pulls its poll spans plus supplied votes from
// /polls.
func scrapeNodeTelemetry(adminAddr string, fams map[string]*promtext.Family) (*nodeTelemetry, error) {
	nt := &nodeTelemetry{hists: make(map[string]telemetry.Snapshot)}
	for _, name := range telemetryFamilies {
		f, ok := fams["lockss_"+name+"_seconds"]
		if !ok {
			continue
		}
		buckets, sum, count, err := f.Histogram()
		if err != nil {
			return nil, err
		}
		snap, err := snapshotFromBuckets(buckets, sum, count)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		nt.hists[name] = snap
	}

	resp, err := scrapeClient.Get("http://" + adminAddr + "/polls")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("polls status %d", resp.StatusCode)
	}
	var pb struct {
		Peer  uint32                 `json:"peer"`
		Polls []telemetry.PollSpan   `json:"polls"`
		Votes []telemetry.VoteRecord `json:"votes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pb); err != nil {
		return nil, fmt.Errorf("decode polls: %w", err)
	}
	nt.id = int(pb.Peer)
	nt.polls = pb.Polls
	nt.votes = pb.Votes
	return nt, nil
}

// snapshotFromBuckets rebuilds a telemetry.Snapshot from a scraped
// cumulative bucket series, inverting each exposed bound back to its log2
// bucket index so per-node snapshots merge exactly. Observations beyond the
// last finite bound (visible only in +Inf) land in the top bucket.
func snapshotFromBuckets(buckets []promtext.BucketPoint, sumSec float64, count uint64) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	var prev uint64
	for _, b := range buckets[:len(buckets)-1] { // all but +Inf
		idx, ok := telemetry.BucketFromBound(b.LE)
		if !ok {
			return snap, fmt.Errorf("bound %g maps to no telemetry bucket", b.LE)
		}
		snap.Buckets[idx] += b.Count - prev
		prev = b.Count
	}
	if count > prev {
		snap.Buckets[telemetry.NumBuckets-1] += count - prev
	}
	snap.Count = count
	snap.Sum = int64(sumSec * 1e9)
	return snap, nil
}

// collectTelemetry condenses every up node's telemetry: per-family quantiles
// merged from the sweep's parsed expositions (fams and nodes are parallel to
// targets, as sampleTargets returns them) and the initiator/voter poll
// timeline.
func collectTelemetry(targets []scrapeTarget, nodes []NodeSample, fams []map[string]*promtext.Family) TelemetrySummary {
	type result struct {
		nt  *nodeTelemetry
		err string
	}
	results := make([]result, len(targets))
	done := make(chan int, len(targets))
	live := 0
	for i, tgt := range targets {
		if tgt.down {
			continue
		}
		if fams[i] == nil {
			results[i].err = fmt.Sprintf("node %d: metrics: %s", tgt.id, nodes[i].MetricsErr)
			continue
		}
		live++
		go func(i int, id int, addr string) {
			nt, err := scrapeNodeTelemetry(addr, fams[i])
			if err != nil {
				results[i].err = fmt.Sprintf("node %d: %v", id, err)
			} else {
				nt.id = id
				results[i].nt = nt
			}
			done <- i
		}(i, tgt.id, tgt.adminAddr)
	}
	for ; live > 0; live-- {
		<-done
	}

	var sum TelemetrySummary
	merged := make(map[string]*telemetry.Snapshot)
	var spans []telemetry.PollSpan
	votesByPoll := make(map[uint64][]telemetry.VoteRecord)
	for _, r := range results {
		if r.err != "" {
			sum.ScrapeErrors = append(sum.ScrapeErrors, r.err)
			continue
		}
		if r.nt == nil {
			continue // down node
		}
		for name, snap := range r.nt.hists {
			m := merged[name]
			if m == nil {
				m = &telemetry.Snapshot{}
				merged[name] = m
			}
			m.Merge(snap)
		}
		spans = append(spans, r.nt.polls...)
		for _, v := range r.nt.votes {
			votesByPoll[v.PollID] = append(votesByPoll[v.PollID], v)
		}
	}

	for _, name := range telemetryFamilies {
		m := merged[name]
		if m == nil {
			continue
		}
		sum.Quantiles = append(sum.Quantiles, QuantileRow{
			Metric: name,
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
