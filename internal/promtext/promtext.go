// Package promtext parses and validates the Prometheus text exposition
// format (version 0.0.4) that the admin control plane hand-writes. It exists
// so the two consumers of that text — the fleet harness, which merges
// scraped histograms across nodes, and the metrics-format lint in the test
// suite — share one strict reader instead of each growing a lenient ad-hoc
// one that silently accepts malformed output.
package promtext

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposition line: a metric name (including any _bucket/_sum/
// _count suffix), its label set and its value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family groups the samples of one declared metric family.
type Family struct {
	Name string
	Help string
	// Type is "counter", "gauge", "histogram" or "untyped" (no TYPE line).
	Type    string
	Samples []Sample
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// histogramSuffixes maps a histogram sample name to its family name, or
// returns the name unchanged.
func familyOf(name string, types map[string]string) string {
	for _, suf := range [...]string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if types[base] == "histogram" {
				return base
			}
		}
	}
	return name
}

// Parse reads a complete exposition into families keyed by family name.
// It is strict: malformed lines, bad metric or label names, duplicate HELP
// or TYPE declarations, and unparseable values are errors, not skips.
func Parse(text string) (map[string]*Family, error) {
	fams := make(map[string]*Family)
	types := make(map[string]string)
	ensure := func(name string) *Family {
		f := fams[name]
		if f == nil {
			f = &Family{Name: name, Type: "untyped"}
			fams[name] = f
		}
		return f
	}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, found := strings.Cut(rest, " ")
			if !found || !nameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed HELP %q", ln+1, line)
			}
			f := ensure(name)
			if f.Help != "" {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			f.Help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 || !nameRe.MatchString(fields[0]) {
				return nil, fmt.Errorf("line %d: malformed TYPE %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", ln+1, fields[1])
			}
			name := fields[0]
			if _, dup := types[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			types[name] = fields[1]
			ensure(name).Type = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			// A bare "# HELP" / "# TYPE" with no payload is a malformed
			// declaration, not a comment.
			if f := strings.Fields(line[1:]); len(f) > 0 && (f[0] == "HELP" || f[0] == "TYPE") {
				return nil, fmt.Errorf("line %d: malformed %s %q", ln+1, f[0], line)
			}
			continue // other comments are legal and ignored
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		f := ensure(familyOf(s.Name, types))
		f.Samples = append(f.Samples, s)
	}
	return fams, nil
}

// parseSample reads one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	rest := line
	// Name runs to the first '{' or space.
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:end]
	if !nameRe.MatchString(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := strings.Index(rest, "}")
		if close < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:close])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	rest = strings.TrimSpace(rest)
	// No timestamps in our exposition: exactly one value field remains.
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("want exactly one value in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels reads the inside of a {...} label set.
func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	body = strings.TrimSuffix(strings.TrimSpace(body), ",")
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed label %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		if !labelRe.MatchString(key) {
			return nil, fmt.Errorf("bad label name %q", key)
		}
		rest := body[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		val, remainder, err := scanQuoted(rest)
		if err != nil {
			return nil, err
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val
		body = strings.TrimPrefix(strings.TrimSpace(remainder), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}

// scanQuoted reads a leading double-quoted string (with \" \\ \n escapes)
// and returns the unquoted value plus the remainder.
func scanQuoted(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected quoted string at %q", s)
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c in %q", s[i], s)
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated string in %q", s)
}

// BucketPoint is one cumulative histogram bucket.
type BucketPoint struct {
	LE    float64 // upper bound in seconds; +Inf for the last
	Count uint64  // cumulative observations <= LE
}

// Histogram extracts a histogram family's buckets (sorted by bound), sum and
// count, validating the shape: every _bucket carries an le label, bounds
// parse, cumulative counts are monotone, the +Inf bucket exists and equals
// _count, and _sum/_count appear exactly once.
func (f *Family) Histogram() (buckets []BucketPoint, sum float64, count uint64, err error) {
	if f.Type != "histogram" {
		return nil, 0, 0, fmt.Errorf("%s: type %s, not histogram", f.Name, f.Type)
	}
	var haveSum, haveCount bool
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return nil, 0, 0, fmt.Errorf("%s: bucket without le label", f.Name)
			}
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(1)
			} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return nil, 0, 0, fmt.Errorf("%s: bad le %q: %w", f.Name, le, err)
			}
			if s.Value < 0 || s.Value != math.Trunc(s.Value) {
				return nil, 0, 0, fmt.Errorf("%s: bucket count %g not a whole number", f.Name, s.Value)
			}
			buckets = append(buckets, BucketPoint{LE: bound, Count: uint64(s.Value)})
		case f.Name + "_sum":
			if haveSum {
				return nil, 0, 0, fmt.Errorf("%s: duplicate _sum", f.Name)
			}
			haveSum, sum = true, s.Value
		case f.Name + "_count":
			if haveCount {
				return nil, 0, 0, fmt.Errorf("%s: duplicate _count", f.Name)
			}
			haveCount, count = true, uint64(s.Value)
		default:
			return nil, 0, 0, fmt.Errorf("%s: stray sample %s", f.Name, s.Name)
		}
	}
	if !haveSum || !haveCount {
		return nil, 0, 0, fmt.Errorf("%s: missing _sum or _count", f.Name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].LE < buckets[j].LE })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].LE == buckets[i-1].LE {
			return nil, 0, 0, fmt.Errorf("%s: duplicate bucket bound %g", f.Name, buckets[i].LE)
		}
		if buckets[i].Count < buckets[i-1].Count {
			return nil, 0, 0, fmt.Errorf("%s: bucket counts not cumulative at le=%g (%d < %d)",
				f.Name, buckets[i].LE, buckets[i].Count, buckets[i-1].Count)
		}
	}
	if len(buckets) == 0 || !math.IsInf(buckets[len(buckets)-1].LE, 1) {
		return nil, 0, 0, fmt.Errorf("%s: missing +Inf bucket", f.Name)
	}
	if inf := buckets[len(buckets)-1].Count; inf != count {
		return nil, 0, 0, fmt.Errorf("%s: +Inf bucket %d != _count %d", f.Name, inf, count)
	}
	return buckets, sum, count, nil
}

// Lint validates a whole exposition: it parses, every histogram family passes
// the Histogram shape checks, and every family with samples carrying a
// counter/gauge/histogram TYPE also carries HELP. Returns the parsed families
// on success so callers can make further assertions.
func Lint(text string) (map[string]*Family, error) {
	fams, err := Parse(text)
	if err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Type == "histogram" {
			if _, _, _, err := f.Histogram(); err != nil {
				return nil, err
			}
		}
		if f.Type != "untyped" && len(f.Samples) > 0 && f.Help == "" {
			return nil, fmt.Errorf("%s: typed family without HELP", f.Name)
		}
	}
	return fams, nil
}

// Value returns the value of the family's single unlabeled sample. Handy for
// flat counter/gauge lookups in tests and the fleet scraper.
func (f *Family) Value() (float64, bool) {
	if len(f.Samples) != 1 || len(f.Samples[0].Labels) != 0 {
		return 0, false
	}
	return f.Samples[0].Value, true
}
