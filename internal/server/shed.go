package server

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// shedder is the admission controller. It windows the backend's own
// recommend-latency histogram — the same instrument the benchmarks
// report, so the shedding signal and the published tail are one number
// — and refuses new recommendation work (429 + Retry-After at the HTTP
// layer) while the windowed p99 sits above the budget.
//
// The histogram is cumulative, so a window is the bucket-wise delta
// between two snapshots; an all-time p99 would take minutes to notice
// an overload and hours to forgive one. Windows are re-evaluated lazily
// on the admission path (no ticker goroutine): the first request past
// the window boundary pays one snapshot diff, everyone else reads a
// cached verdict.
//
// Disengagement is probe-based: shedding stops new samples from
// reaching the histograms, so an engaged window with too few samples
// to estimate a tail reads as "the storm has passed" and admission
// resumes. Under a sustained storm the next window re-engages — the
// controller oscillates between shedding and probing, which is exactly
// the bounded-tail behaviour the overload test pins (p99 of ADMITTED
// work stays near the budget instead of collapsing with the queue).
type shedder struct {
	hist       *metrics.Histogram
	budget     time.Duration // p99 ceiling; 0 disables shedding
	window     time.Duration
	retryAfter time.Duration
	minSamples uint64
	now        func() time.Time

	mu      sync.Mutex
	prev    metrics.HistogramSnapshot
	nextAt  time.Time
	engaged bool

	mAdmitted *metrics.Counter // server/shed/admitted
	mShed     *metrics.Counter // server/shed/shed
	mEngaged  *metrics.Counter // server/shed/engagements
	gEngaged  *metrics.Gauge   // server/shed/engaged (0/1)
	gP99      *metrics.Gauge   // server/shed/window_p99_ns
}

func newShedder(hist *metrics.Histogram, budget, window, retryAfter time.Duration, now func() time.Time, reg *metrics.Registry) *shedder {
	if window <= 0 {
		window = 250 * time.Millisecond
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	if now == nil {
		now = time.Now
	}
	s := &shedder{
		hist:       hist,
		budget:     budget,
		window:     window,
		retryAfter: retryAfter,
		minSamples: 20,
		now:        now,
		prev:       hist.Snapshot(),
		mAdmitted:  reg.Counter("server/shed/admitted"),
		mShed:      reg.Counter("server/shed/shed"),
		mEngaged:   reg.Counter("server/shed/engagements"),
		gEngaged:   reg.Gauge("server/shed/engaged"),
		gP99:       reg.Gauge("server/shed/window_p99_ns"),
	}
	s.nextAt = s.now().Add(window)
	return s
}

// Admit decides one recommendation request: true to serve, false to
// shed. RetryAfter is the hint to attach on a shed.
func (s *shedder) Admit() bool {
	if s.budget <= 0 {
		s.mAdmitted.Inc()
		return true
	}
	s.mu.Lock()
	if t := s.now(); !t.Before(s.nextAt) {
		s.evaluateLocked()
		s.nextAt = t.Add(s.window)
	}
	engaged := s.engaged
	s.mu.Unlock()
	if engaged {
		s.mShed.Inc()
		return false
	}
	s.mAdmitted.Inc()
	return true
}

// RetryAfter returns the client back-off hint for shed responses.
func (s *shedder) RetryAfter() time.Duration { return s.retryAfter }

// evaluateLocked recomputes the verdict from the last window's delta.
func (s *shedder) evaluateLocked() {
	cur := s.hist.Snapshot()
	delta := windowDelta(s.prev, cur)
	s.prev = cur
	if delta.Count < s.minSamples {
		// Too few admitted requests to estimate a tail: either the
		// storm passed, or shedding itself starved the signal. Probe.
		if s.engaged {
			s.engaged = false
			s.gEngaged.Set(0)
		}
		return
	}
	p99 := delta.Quantile(0.99)
	s.gP99.Set(p99)
	over := time.Duration(p99) > s.budget
	if over && !s.engaged {
		s.mEngaged.Inc()
		s.gEngaged.Set(1)
	} else if !over && s.engaged {
		s.gEngaged.Set(0)
	}
	s.engaged = over
}

// windowDelta subtracts prev from cur bucket by bucket: the
// distribution of everything observed during the window. Both snapshots
// list their non-empty buckets in ascending Upper order, and counts only
// grow, so every prev bucket is also in cur. Max is cumulative and
// cannot be windowed; it only clamps Quantile, so the cumulative value
// is a safe (conservative) stand-in.
func windowDelta(prev, cur metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	out := metrics.HistogramSnapshot{Count: cur.Count - prev.Count, Sum: cur.Sum - prev.Sum, Max: cur.Max}
	j := 0
	for _, b := range cur.Buckets {
		n := b.Count
		if j < len(prev.Buckets) && prev.Buckets[j].Upper == b.Upper {
			n -= prev.Buckets[j].Count
			j++
		}
		if n > 0 {
			out.Buckets = append(out.Buckets, metrics.Bucket{Upper: b.Upper, Count: n})
		}
	}
	return out
}
