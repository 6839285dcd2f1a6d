package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/metrics"
)

// stubBackend is a Backend with a hand-fed latency histogram, for
// driving the shed controller without a real engine.
type stubBackend struct {
	hist *metrics.Histogram
	recs []repro.Recommendation
}

func (s *stubBackend) ObserveBatch(actions []repro.Action) []error {
	return make([]error, len(actions))
}
func (s *stubBackend) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	return s.recs, false
}
func (s *stubBackend) Similarity(u, v repro.UserID) float64                          { return 0 }
func (s *stubBackend) PropagateScores(seeds []repro.UserID) map[repro.UserID]float64 { return nil }
func (s *stubBackend) SetOnScoresChanged(fn func(users []repro.UserID))              {}
func (s *stubBackend) Metrics() metrics.Snapshot                                     { return metrics.Snapshot{} }
func (s *stubBackend) RecommendLatency() *metrics.Histogram                          { return s.hist }

// fakeClock is a manually advanced clock for window control.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestShedEngagesAndRecovers drives the full overload cycle: a window
// of slow samples engages shedding (429 + Retry-After), a starved
// window disengages it (probe-based recovery), and a healthy window
// keeps it off. The latency histogram is the backend's own instrument
// — the test feeds it directly, standing in for a wedged engine.
func TestShedEngagesAndRecovers(t *testing.T) {
	stub := &stubBackend{
		hist: metrics.NewRegistry().Histogram("engine/recommend/latency_ns"),
		recs: []repro.Recommendation{{Tweet: 1, Score: 0.5}},
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	srv := New(stub, Options{
		P99Budget:  10 * time.Millisecond,
		ShedWindow: 100 * time.Millisecond,
		RetryAfter: 2 * time.Second,
		Clock:      clk.Now,
	})
	defer srv.Close()
	h := srv.Handler()

	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/recommend?user=1&k=5&now=10", nil))
		return w
	}

	// Healthy traffic inside the first window: admitted.
	for i := 0; i < 5; i++ {
		if w := get(); w.Code != http.StatusOK {
			t.Fatalf("healthy request %d: status %d", i, w.Code)
		}
	}
	// A storm: the engine histogram records a window of 50ms reads.
	for i := 0; i < 50; i++ {
		stub.hist.ObserveDuration(50 * time.Millisecond)
	}
	clk.Advance(150 * time.Millisecond)
	w := get()
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("post-storm request: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	for i := 0; i < 3; i++ {
		if w := get(); w.Code != http.StatusTooManyRequests {
			t.Fatalf("engaged request %d: status %d, want 429", i, w.Code)
		}
	}

	// Shedding starves the histogram; the next window has no samples,
	// so the controller probes — admission resumes.
	clk.Advance(150 * time.Millisecond)
	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("probe request: status %d, want 200", w.Code)
	}

	// A healthy window of fast reads keeps it disengaged.
	for i := 0; i < 50; i++ {
		stub.hist.ObserveDuration(time.Millisecond)
	}
	clk.Advance(150 * time.Millisecond)
	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("recovered request: status %d, want 200", w.Code)
	}

	snap := srv.Metrics()
	if got := snap.Counters["server/shed/shed"]; got != 4 {
		t.Errorf("server/shed/shed = %d, want 4", got)
	}
	if got := snap.Counters["server/shed/engagements"]; got != 1 {
		t.Errorf("server/shed/engagements = %d, want 1", got)
	}
	if snap.Gauges["server/shed/engaged"] != 0 {
		t.Error("controller still reads engaged after recovery")
	}
}

// TestShedDisabledByDefault: a zero budget admits everything, whatever
// the histograms say.
func TestShedDisabledByDefault(t *testing.T) {
	stub := &stubBackend{hist: metrics.NewRegistry().Histogram("h")}
	for i := 0; i < 100; i++ {
		stub.hist.ObserveDuration(time.Second)
	}
	srv := New(stub, Options{})
	defer srv.Close()
	h := srv.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/recommend?user=1&k=5&now=10", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d with shedding disabled", w.Code)
	}
}

// TestShedFewSamplesNoEngage: a trickle below minSamples never sheds —
// a tail estimated from three requests is noise, not an overload.
func TestShedFewSamplesNoEngage(t *testing.T) {
	stub := &stubBackend{hist: metrics.NewRegistry().Histogram("h")}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	srv := New(stub, Options{
		P99Budget:  10 * time.Millisecond,
		ShedWindow: 100 * time.Millisecond,
		Clock:      clk.Now,
	})
	defer srv.Close()
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		stub.hist.ObserveDuration(time.Second)
	}
	clk.Advance(150 * time.Millisecond)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/recommend?user=1&k=5&now=10", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d; three slow samples must not engage shedding", w.Code)
	}
}

// TestDeltaMerge pins the windowing arithmetic: a window holds only
// what the histogram recorded between its two snapshots.
func TestDeltaMerge(t *testing.T) {
	h := metrics.NewRegistry().Histogram("a")
	h.Observe(100)
	h.Observe(3000)
	prev := h.Snapshot()
	for i := 0; i < 10; i++ {
		h.Observe(1000)
		h.Observe(3000)
	}
	d := windowDelta(prev, h.Snapshot())
	if d.Count != 20 {
		t.Fatalf("window count = %d, want 20 (the pre-window samples must not leak in)", d.Count)
	}
	if d.Sum != 10*1000+10*3000 {
		t.Fatalf("window sum = %d", d.Sum)
	}
	want := []metrics.Bucket{{Upper: 1024, Count: 10}, {Upper: 4096, Count: 10}}
	if fmt.Sprint(d.Buckets) != fmt.Sprint(want) {
		t.Fatalf("window buckets = %v, want %v", d.Buckets, want)
	}
	if q := d.Quantile(0.99); q < 3000 || q > 4096 {
		t.Fatalf("window p99 = %d, want within [3000, 4096]", q)
	}
}
