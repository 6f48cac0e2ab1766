package promtext

import (
	"math"
	"strings"
	"testing"
)

const goodExposition = `# HELP lockss_up Whether the node is up.
# TYPE lockss_up gauge
lockss_up 1
# HELP lockss_polls_total Polls concluded.
# TYPE lockss_polls_total counter
lockss_polls_total 42
# HELP lockss_build_info Build metadata.
# TYPE lockss_build_info gauge
lockss_build_info{version="v1 rc1",goversion="go1.24.0 X:synctest"} 1
# HELP lockss_poll_seconds Poll duration.
# TYPE lockss_poll_seconds histogram
lockss_poll_seconds_bucket{le="0.5"} 3
lockss_poll_seconds_bucket{le="1"} 5
lockss_poll_seconds_bucket{le="+Inf"} 6
lockss_poll_seconds_sum 4.25
lockss_poll_seconds_count 6
`

func TestParseGoodExposition(t *testing.T) {
	fams, err := Parse(goodExposition)
	if err != nil {
		t.Fatal(err)
	}
	up := fams["lockss_up"]
	if up == nil || up.Type != "gauge" || up.Help == "" {
		t.Fatalf("lockss_up family: %+v", up)
	}
	if v, ok := up.Value(); !ok || v != 1 {
		t.Errorf("lockss_up value = %v, %v", v, ok)
	}
	bi := fams["lockss_build_info"]
	if bi == nil || len(bi.Samples) != 1 {
		t.Fatalf("build_info family: %+v", bi)
	}
	// Label values may hold spaces: runtime.Version() does under any
	// GOEXPERIMENT or a devel toolchain, and so does -ldflags "-X
	// main.version=v1 rc1". The CI lint parses a live /metrics carrying both.
	if got := bi.Samples[0].Labels; got["version"] != "v1 rc1" || got["goversion"] != "go1.24.0 X:synctest" {
		t.Errorf("build_info labels: %v", got)
	}
	if _, ok := bi.Value(); ok {
		t.Error("labeled build_info reads as a scalar value")
	}

	h := fams["lockss_poll_seconds"]
	if h == nil || h.Type != "histogram" {
		t.Fatalf("histogram family: %+v", h)
	}
	buckets, sum, count, err := h.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if count != 6 || sum != 4.25 || len(buckets) != 3 {
		t.Fatalf("histogram = %v sum=%g count=%d", buckets, sum, count)
	}
	if buckets[0].LE != 0.5 || buckets[0].Count != 3 {
		t.Errorf("first bucket: %+v", buckets[0])
	}
	if !math.IsInf(buckets[2].LE, 1) || buckets[2].Count != 6 {
		t.Errorf("+Inf bucket: %+v", buckets[2])
	}
	if _, err := Lint(goodExposition); err != nil {
		t.Errorf("Lint rejected good exposition: %v", err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"bare word", "not a metric line\n"},
		{"bad metric name", "2x_bad 1\n"},
		{"missing value", "lockss_up\n"},
		{"two values", "lockss_up 1 2\n"},
		{"bad value", "lockss_up one\n"},
		{"unterminated labels", `m{a="1" 3` + "\n"},
		{"unterminated string", `m{a="1} 3` + "\n"},
		{"unquoted label", "m{a=1} 3\n"},
		{"bad label name", `m{1a="x"} 3` + "\n"},
		{"duplicate label", `m{a="1",a="2"} 3` + "\n"},
		{"bad escape", `m{a="\q"} 3` + "\n"},
		{"malformed HELP", "# HELP\n"},
		{"duplicate HELP", "# HELP m one\n# HELP m two\nm 1\n"},
		{"malformed TYPE", "# TYPE m\n"},
		{"unknown TYPE", "# TYPE m ring\n"},
		{"duplicate TYPE", "# TYPE m gauge\n# TYPE m counter\nm 1\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.text)
		}
	}
}

func TestLabelEscapes(t *testing.T) {
	fams, err := Parse("m{a=\"x\\\\y\\\"z\\nw\"} 1\n")
	if err != nil {
		t.Fatal(err)
	}
	got := fams["m"].Samples[0].Labels["a"]
	if got != "x\\y\"z\nw" {
		t.Errorf("unescaped label = %q", got)
	}
}

func TestHistogramShapeChecks(t *testing.T) {
	mk := func(body string) string {
		return "# HELP h x\n# TYPE h histogram\n" + body
	}
	cases := []struct {
		name string
		text string
	}{
		{"bucket without le", mk("h_bucket 1\nh_sum 0\nh_count 1\n")},
		{"bad le", mk(`h_bucket{le="wide"} 1` + "\nh_sum 0\nh_count 1\n")},
		{"fractional count", mk(`h_bucket{le="+Inf"} 1.5` + "\nh_sum 0\nh_count 1\n")},
		{"missing +Inf", mk(`h_bucket{le="1"} 1` + "\nh_sum 0\nh_count 1\n")},
		{"non-cumulative", mk(`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\nh_sum 0\nh_count 5\n")},
		{"inf != count", mk(`h_bucket{le="+Inf"} 4` + "\nh_sum 0\nh_count 5\n")},
		{"duplicate bound", mk(`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 0\nh_count 2\n")},
		{"duplicate sum", mk(`h_bucket{le="+Inf"} 1` + "\nh_sum 0\nh_sum 0\nh_count 1\n")},
		{"missing count", mk(`h_bucket{le="+Inf"} 1` + "\nh_sum 0\n")},
	}
	for _, c := range cases {
		fams, err := Parse(c.text)
		if err != nil {
			// Some shapes fail at parse time; either layer may reject.
			continue
		}
		f := fams["h"]
		if f == nil {
			t.Errorf("%s: family folded away", c.name)
			continue
		}
		if _, _, _, err := f.Histogram(); err == nil {
			t.Errorf("%s: Histogram() accepted %q", c.name, c.text)
		}
	}
	// A sample in the family that is neither _bucket, _sum nor _count is a
	// shape error (unreachable through Parse, which folds only those three
	// suffixes, but the check guards hand-built families).
	stray := &Family{Name: "h", Type: "histogram", Samples: []Sample{{Name: "h_quantile", Value: 3}}}
	if _, _, _, err := stray.Histogram(); err == nil {
		t.Error("Histogram() accepted a stray sample")
	}

	// Histogram() on a non-histogram family is an error, not a zero value.
	fams, err := Parse("# HELP g x\n# TYPE g gauge\ng 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fams["g"].Histogram(); err == nil {
		t.Error("Histogram() accepted a gauge family")
	}
}

func TestLintRequiresHelp(t *testing.T) {
	if _, err := Lint("# TYPE m gauge\nm 1\n"); err == nil || !strings.Contains(err.Error(), "HELP") {
		t.Errorf("Lint accepted typed family without HELP: %v", err)
	}
	// Untyped samples without declarations are fine (flat internal counters).
	if _, err := Lint("m 1\n"); err != nil {
		t.Errorf("Lint rejected untyped sample: %v", err)
	}
}
