package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

// This file holds the harness's own arithmetic — percentiles, the open
// loop's schedule, span self time, metric-snapshot diffs — kept free of
// engine and network code so stats_test.go pins it on synthetic data.

// latSummary describes one latency sample set (nanoseconds in, as
// recorded; the reporting code converts units).
type latSummary struct {
	N                  int
	P50, P95, P99, Max int64
	Mean               float64
}

// percentile returns the nearest-rank q-quantile of an ascending slice
// (0 when empty): the smallest value with at least q of the samples at or
// below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize sorts lat in place and returns its summary.
func summarize(lat []int64) latSummary {
	if len(lat) == 0 {
		return latSummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum float64
	for _, v := range lat {
		sum += float64(v)
	}
	return latSummary{
		N:    len(lat),
		P50:  percentile(lat, 0.50),
		P95:  percentile(lat, 0.95),
		P99:  percentile(lat, 0.99),
		Max:  lat[len(lat)-1],
		Mean: sum / float64(len(lat)),
	}
}

// median returns the median of a small sample (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// arrival is one open-loop request: when it is due (offset from the
// window start) and whether it is a write.
type arrival struct {
	Due   time.Duration
	Write bool
}

// poissonSchedule draws the arrivals of two independent Poisson streams
// (reads at readRate/s, writes at writeRate/s) over window, merged in
// time order: exponential gaps at the summed rate, each arrival a write
// with probability writeRate/(readRate+writeRate).
func poissonSchedule(rng *xrand.RNG, readRate, writeRate float64, window time.Duration) []arrival {
	total := readRate + writeRate
	if total <= 0 {
		return nil
	}
	meanGap := float64(time.Second) / total
	pWrite := writeRate / total
	var out []arrival
	for at := rng.Exp(meanGap); at < float64(window); at += rng.Exp(meanGap) {
		out = append(out, arrival{Due: time.Duration(at), Write: rng.Bool(pWrite)})
	}
	return out
}

// span is one traced interval. Spans of one request share Req; Parent
// names the span that caused this one ("" for a root).
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // unix nanoseconds
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // batch size, for backend.observe_batch
}

// spanAgg accumulates the spans of one name.
type spanAgg struct {
	Count int
	Self  int64 // summed self times, ns
}

func (a spanAgg) selfMeanUS() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Self) / float64(a.Count) / 1e3
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its child spans cover; a child is a
// span of the same request whose Parent is this span's name. Children of
// one parent are assumed not to overlap each other (true for every chain
// this benchmark records), and each child is clipped to its parent.
func selfTimes(spans []span) map[string]spanAgg {
	type key struct{ req, name string }
	covered := make(map[key]int64)
	byKey := make(map[key]span, len(spans))
	for _, s := range spans {
		byKey[key{s.Req, s.Name}] = s
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byKey[key{s.Req, s.Parent}]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered[key{s.Req, s.Parent}] += hi - lo
		}
	}
	out := make(map[string]spanAgg)
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.Self += s.End - s.Start - covered[key{s.Req, s.Name}]
		out[s.Name] = a
	}
	return out
}

// diffSnapshot returns after − before: counters and histogram buckets
// subtract (a window's worth of activity), gauges keep the after value.
// A histogram's Max cannot be windowed, so the diff keeps after's.
func diffSnapshot(before, after metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Counters:   make(map[string]uint64, len(after.Counters)),
		Gauges:     after.Gauges,
		Histograms: make(map[string]metrics.HistogramSnapshot, len(after.Histograms)),
	}
	for name, v := range after.Counters {
		out.Counters[name] = v - before.Counters[name]
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		prev := make(map[int64]uint64, len(b.Buckets))
		for _, bk := range b.Buckets {
			prev[bk.Upper] = bk.Count
		}
		d := metrics.HistogramSnapshot{Count: h.Count - b.Count, Sum: h.Sum - b.Sum, Max: h.Max}
		for _, bk := range h.Buckets {
			if n := bk.Count - prev[bk.Upper]; n > 0 {
				d.Buckets = append(d.Buckets, metrics.Bucket{Upper: bk.Upper, Count: n})
			}
		}
		out.Histograms[name] = d
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
