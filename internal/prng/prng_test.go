package prng

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

func TestChildIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Child("alpha")
	c2 := root.Child("beta")
	c1again := New(7).Child("alpha")
	if c1.Uint64() != c1again.Uint64() {
		t.Error("child streams are not reproducible")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling child streams coincide")
	}
	// Deriving children must not perturb the parent.
	p1 := New(7)
	v1 := p1.Uint64()
	p2 := New(7)
	_ = p2.Child("x")
	if p2.Uint64() != v1 {
		t.Error("Child perturbed parent stream")
	}
}

func TestChildNDistinct(t *testing.T) {
	root := New(3)
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		v := root.ChildN("peer", i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("ChildN %d and %d coincide", i, j)
		}
		seen[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const buckets = 10
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 0.05*n/buckets {
			t.Errorf("bucket %d count %d deviates from %d", b, c, n/buckets)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	const mean = 42.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(mean)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-mean) > 0.05*mean {
		t.Errorf("exponential mean %.2f, want ~%.2f", got, mean)
	}
	if New(1).ExpFloat64(0) != 0 || New(1).ExpFloat64(-5) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestBool(t *testing.T) {
	r := New(19)
	if r.Bool(0) || !r.Bool(1) {
		t.Error("Bool boundary behavior wrong")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.9) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.9) > 0.01 {
		t.Errorf("Bool(0.9) rate %.4f", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 10)
		s := New(seed).Sample(n, k)
		want := k
		if k > n {
			want = n
		}
		if len(s) != want {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSampleUniform(t *testing.T) {
	// Every element should appear in a k-of-n sample with probability k/n.
	r := New(23)
	const n, k, trials = 10, 3, 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("element %d sampled %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestUint64nBoundary(t *testing.T) {
	r := New(31)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d", v)
		}
	}
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) = %d", v)
		}
	}
}

func TestShuffleCoverage(t *testing.T) {
	// A 3-element shuffle should reach all 6 permutations.
	r := New(37)
	seen := map[[3]int]int{}
	for i := 0; i < 6000; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		seen[a]++
	}
	if len(seen) != 6 {
		t.Errorf("shuffle reached %d of 6 permutations", len(seen))
	}
	for p, c := range seen {
		if c < 800 || c > 1200 {
			t.Errorf("permutation %v count %d deviates from 1000", p, c)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/sample_into.golden from the current implementation")

// TestSampleIntoGolden pins SampleInto's output and the stream position it
// leaves behind against a golden captured from the map-based implementation
// it replaced. One Source per seed runs every case in turn, so scratch and
// dst reuse across calls are pinned too.
func TestSampleIntoGolden(t *testing.T) {
	cases := [][2]int{{5, 2}, {40, 20}, {41, 40}, {5000, 10}, {7, 7}, {7, 9}}
	var got bytes.Buffer
	for seed := uint64(1); seed <= 64; seed++ {
		r := New(seed)
		var dst []int
		for _, c := range cases {
			dst = r.SampleInto(dst, c[0], c[1])
			fmt.Fprintf(&got, "seed %d n %d k %d: %v next %016x\n", seed, c[0], c[1], dst, r.Uint64())
		}
	}
	const path = "testdata/sample_into.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, path, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("output is a strict prefix of %s", path)
	}
}
