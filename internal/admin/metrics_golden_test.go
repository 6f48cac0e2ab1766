package admin

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lockss/internal/content"
	"lockss/internal/node"
	"lockss/internal/store"
)

// newStoreNode is newTestNode on a durable store, so /metrics carries the
// store section.
func newStoreNode(t *testing.T) *node.Node {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.CreateFrom(testSpec, 1, content.PublisherReader(testSpec))
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return startTestNode(t, st, rep)
}

// metricsShape reduces an exposition to what scrapers and dashboards are
// configured against: every # HELP and # TYPE line verbatim and every sample's
// name, in order. Labels and values are dropped and consecutive samples of
// one name collapse, since bucket counts vary with the data observed.
func metricsShape(body string) string {
	var b strings.Builder
	last := ""
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.IndexAny(line, "{ ")]
			if line == last {
				continue
			}
		}
		last = line
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsShapeGolden pins the ordered sequence of HELP lines, TYPE lines
// and sample names /metrics emits, with and without a store. Renaming,
// reordering or retyping a family is an operator-visible change; make it
// deliberately by replacing the golden with the shape the failure prints.
func TestMetricsShapeGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		title string
		n     *node.Node
	}{
		{"no store", newTestNode(t, nil)},
		{"store", newStoreNode(t)},
	} {
		rec, body := get(t, New(c.n, Options{}).Handler(), "/metrics")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: GET /metrics = %d", c.title, rec.Code)
		}
		got.WriteString("== " + c.title + " ==\n" + metricsShape(body))
	}
	path := filepath.Join("testdata", "metrics_shape.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics shape diverges from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}

// TestEveryCounterFieldExported sets each uint64 field of the three stats
// structs to its own bit and reads every family: a family whose value is
// exactly one bit exports that field. Every field must be exported by exactly
// one family, so a counter added to a stats struct cannot be forgotten in —
// or written twice into — scalarFamilies. Families over several fields
// (lockss_polls_concluded_total) read as several bits and count for none.
func TestEveryCounterFieldExported(t *testing.T) {
	var sc scrape
	fieldOfBit := make(map[float64]string)
	bit := 1 // 1<<0 is what constant gauges such as lockss_up read
	for _, v := range []reflect.Value{
		reflect.ValueOf(&sc.Peer).Elem(),
		reflect.ValueOf(&sc.Transport).Elem(),
		reflect.ValueOf(&sc.Store).Elem(),
	} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() != reflect.Uint64 {
				continue
			}
			v.Field(i).SetUint(1 << bit)
			fieldOfBit[float64(uint64(1)<<bit)] = v.Type().String() + "." + v.Type().Field(i).Name
			bit++
		}
	}
	if bit > 52 {
		t.Fatalf("%d counter fields overflow float64's exact integers", bit-1)
	}
	exportedBy := make(map[string][]string)
	for _, f := range scalarFamilies {
		if field, ok := fieldOfBit[f.get(&sc)]; ok {
			exportedBy[field] = append(exportedBy[field], f.name)
		}
	}
	for _, field := range fieldOfBit {
		if got := exportedBy[field]; len(got) != 1 {
			t.Errorf("%s is exported by %d families %v, want exactly 1", field, len(got), got)
		}
	}
}
