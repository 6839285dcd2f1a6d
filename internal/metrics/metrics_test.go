package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter reads %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestHistogramBucketEdges pins the log2 bucket layout: value v lands in
// the bucket whose exclusive upper edge is the next power of two, with
// exact powers of two opening a new bucket.
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v     int64
		upper int64
	}{
		{-5, 0}, {0, 0},
		{1, 2},
		{2, 4}, {3, 4},
		{4, 8}, {7, 8},
		{1023, 1024}, {1024, 2048},
		{int64(time.Millisecond), 1 << 20},
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.v)
		s := h.Snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%d): %d buckets", tc.v, len(s.Buckets))
		}
		if s.Buckets[0].Upper != tc.upper {
			t.Errorf("Observe(%d): bucket upper = %d, want %d", tc.v, s.Buckets[0].Upper, tc.upper)
		}
	}
	// The tail bucket absorbs everything beyond the fixed range.
	var h Histogram
	h.Observe(math.MaxInt64)
	if s := h.Snapshot(); s.Buckets[0].Upper != math.MaxInt64 {
		t.Errorf("tail bucket upper = %d", s.Buckets[0].Upper)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 5050 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if s.Max != 100 {
		t.Fatalf("max = %d", s.Max)
	}
	if m := s.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
	// The quantile estimate is the bucket upper edge: a ≤2x overestimate.
	p50 := s.Quantile(0.5)
	if p50 < 50 || p50 > 100 {
		t.Fatalf("p50 = %d, want within [50,100]", p50)
	}
	if q := s.Quantile(1.0); q != 100 {
		t.Fatalf("p100 = %d, want clamped to max 100", q)
	}
	if q := s.Quantile(0); q < 1 {
		t.Fatalf("p0 = %d", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// under -race this doubles as the lock-free Observe race test, and the
// totals must still be exact.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 20000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(base int64) {
			defer wg.Done()
			for j := int64(0); j < perG; j++ {
				h.Observe(base + j%512)
			}
		}(int64(i))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a/b")
	c2 := r.Counter("a/b")
	if c1 != c2 {
		t.Fatal("same name resolved to different counters")
	}
	if r.Gauge("a/b") == nil || r.Histogram("a/b") == nil {
		t.Fatal("instrument kinds must have independent namespaces")
	}
	c1.Add(3)
	s := r.Snapshot()
	if s.Counter("a/b") != 3 {
		t.Fatalf("snapshot counter = %d", s.Counter("a/b"))
	}
}

// TestNilSafety: every instrument method on nil receivers, and every
// Registry method on a nil registry, must be a safe no-op so that
// un-instrumented components need no wiring.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter non-zero")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge non-zero")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram non-zero")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot non-zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned instruments")
	}
	r.Counter("x").Add(1) // must not panic
	if s := r.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry snapshot non-empty")
	}
}

// TestHotPathAllocs pins the allocation-free contract of the write path.
func TestHotPathAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine/requests").Add(10)
	r.Gauge("rec/states").Set(4)
	r.Histogram("engine/recommend/latency_ns").ObserveDuration(3 * time.Millisecond)
	r.Histogram("rec/drain/batch_size").Observe(17)
	s := r.Snapshot()

	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"# engine", "# rec", "engine/requests", "rec/states", "count=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("engine/requests") != 10 || back.Gauge("rec/states") != 4 {
		t.Fatalf("JSON round-trip lost values: %+v", back)
	}
	if back.Histogram("engine/recommend/latency_ns").Count != 1 {
		t.Fatal("JSON round-trip lost histogram")
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev && u != math.MaxInt64 {
			t.Fatalf("bucket %d upper %d not increasing (prev %d)", i, u, prev)
		}
		prev = u
	}
	if bucketUpper(histBuckets-1) != math.MaxInt64 {
		t.Fatal("last bucket must be unbounded")
	}
}
