package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	s := summarize([]int64{30, 10, 20})
	if s.N != 3 || s.P50 != 20 || s.Max != 30 || s.Mean != 20 {
		t.Errorf("summarize = %+v", s)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// pace releases every arrival, in order, none before its due time. How
// late it runs is the machine's business and is measured, not asserted.
func TestPaceReleasesAtDueTimes(t *testing.T) {
	dues := []time.Duration{0, 2 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 5300 * time.Microsecond}
	out := make(chan int, len(dues))
	start := time.Now()
	go pace(start, dues, out)
	want := 0
	for i := range out {
		late := time.Since(start.Add(dues[i]))
		if i != want {
			t.Fatalf("arrival %d released when %d was next", i, want)
		}
		if late < 0 {
			t.Errorf("arrival %d released %v before it was due", i, -late)
		}
		want++
	}
	if want != len(dues) {
		t.Errorf("%d arrivals released, want %d", want, len(dues))
	}
}

func TestPoissonScheduleRatesAndDeterminism(t *testing.T) {
	a := poissonSchedule(xrand.New(7), 900, 100, 10*time.Second)
	b := poissonSchedule(xrand.New(7), 900, 100, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	writes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d out of order", i)
		}
		if a[i].Write {
			writes++
		}
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals over 10 s at 1000/s", n)
	}
	if writes < 850 || writes > 1150 {
		t.Errorf("%d writes, want about 1000", writes)
	}
	if last := a[len(a)-1].Due; last >= 10*time.Second {
		t.Errorf("arrival due at %v is outside the window", last)
	}
}

// client [0,100] → handler [20,80] → backend [30,60]: self times 40, 30, 30.
// A second request's handler has no backend child (a cache hit).
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "client.read", Req: "r1", Start: 0, End: 100},
		{Name: "handler.recommend", Req: "r1", Parent: "client.read", Start: 20, End: 80},
		{Name: "backend.recommend", Req: "r1", Parent: "handler.recommend", Start: 30, End: 60},
		{Name: "client.read", Req: "r2", Start: 200, End: 260},
		{Name: "handler.recommend", Req: "r2", Parent: "client.read", Start: 210, End: 250},
		// A child that outlives its parent is clipped to it.
		{Name: "client.write", Req: "w1", Start: 0, End: 50},
		{Name: "handler.observe", Req: "w1", Parent: "client.write", Start: 40, End: 70},
	}
	agg := selfTimes(spans)
	check := func(name string, count int, self int64) {
		t.Helper()
		if a := agg[name]; a.Count != count || a.Self != self {
			t.Errorf("%s = %+v, want count %d self %d", name, a, count, self)
		}
	}
	check("client.read", 2, 40+20)
	check("handler.recommend", 2, 30+40)
	check("backend.recommend", 1, 30)
	check("client.write", 1, 40)
	if got := agg["client.read"].selfMeanUS(); got != 0.03 {
		t.Errorf("selfMeanUS = %v, want 0.03", got)
	}
}

func TestDiffSnapshot(t *testing.T) {
	before := metrics.Snapshot{
		Counters: map[string]uint64{"a": 10},
		Gauges:   map[string]int64{"g": 5},
		Histograms: map[string]metrics.HistogramSnapshot{"h": {
			Count: 3, Sum: 30, Max: 16,
			Buckets: []metrics.Bucket{{Upper: 8, Count: 1}, {Upper: 16, Count: 2}},
		}},
	}
	after := metrics.Snapshot{
		Counters: map[string]uint64{"a": 25, "new": 4},
		Gauges:   map[string]int64{"g": 7},
		Histograms: map[string]metrics.HistogramSnapshot{"h": {
			Count: 10, Sum: 400, Max: 128,
			Buckets: []metrics.Bucket{{Upper: 8, Count: 1}, {Upper: 16, Count: 4}, {Upper: 128, Count: 5}},
		}},
	}
	d := diffSnapshot(before, after)
	if d.Counters["a"] != 15 || d.Counters["new"] != 4 || d.Gauges["g"] != 7 {
		t.Errorf("counters %v gauges %v", d.Counters, d.Gauges)
	}
	h := d.Histograms["h"]
	if h.Count != 7 || h.Sum != 370 || len(h.Buckets) != 2 || h.Buckets[0] != (metrics.Bucket{Upper: 16, Count: 2}) || h.Buckets[1] != (metrics.Bucket{Upper: 128, Count: 5}) {
		t.Errorf("histogram diff = %+v", h)
	}
	if q := h.Quantile(0.5); q != 128 {
		t.Errorf("windowed p50 = %d, want 128 (5 of the window's 7 samples)", q)
	}
}

// The metric tables in main.go and BENCHMARK.json must name the same
// metrics with the same units, and every workload must be listed.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
