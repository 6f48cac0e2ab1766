package fleet

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"lockss/internal/promtext"
)

// scrapeClient bounds every admin scrape so one wedged node cannot stall
// the sweep past its interval.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrapeMetrics fetches one node's /metrics and parses it with the strict
// exposition reader the admin tests lint against.
func scrapeMetrics(adminAddr string) (map[string]*promtext.Family, error) {
	resp, err := scrapeClient.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return promtext.Parse(string(body))
}

// scalars flattens scraped families into name -> value for every family
// that is one unlabeled sample — the counters and gauges; histograms and
// labeled info series are left out.
func scalars(fams map[string]*promtext.Family) map[string]float64 {
	out := make(map[string]float64, len(fams))
	for name, f := range fams {
		if v, ok := f.Value(); ok {
			out[name] = v
		}
	}
	return out
}

// scrapeHealthz reports whether the node's /healthz answered 200.
func scrapeHealthz(adminAddr string) bool {
	resp, err := scrapeClient.Get("http://" + adminAddr + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// damageFromMetrics extracts the marked-damage and active-poll gauges (zero
// when the node's actor loop was unresponsive and the gauges were absent).
func damageFromMetrics(m map[string]float64) (damage int, polls int) {
	return int(m["lockss_au_damaged_blocks"]), int(m["lockss_active_polls"])
}
