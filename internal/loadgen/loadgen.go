// Package loadgen holds the measurement plumbing of the load-generator
// command cmd/serveload: a genuine reservoir sampler for latency
// percentiles.
//
// The tools previously kept the *first* 2^16 sampled latencies, so a
// long run's "percentiles" measured warm-up — cold caches, first-touch
// page faults, JIT-ing branch predictors — rather than steady state.
// Reservoir sampling (Vitter's Algorithm R) keeps a uniform sample over
// the whole stream: after N observations every observation has the same
// capacity/N probability of being in the sample, so the reported
// percentiles converge on the run's true distribution no matter how long
// it goes.
package loadgen

import (
	"sort"
	"sync"
	"time"
)

// Reservoir is a bounded uniform sample over a latency stream. It is
// safe for concurrent use (the tools sample from many reader
// goroutines); the RNG is a deterministic splitmix64, so the same
// observation sequence always keeps the same sample.
type Reservoir struct {
	mu    sync.Mutex
	cap   int
	seen  uint64
	state uint64 // splitmix64 state
	s     []time.Duration
}

// NewReservoir returns a reservoir keeping at most capacity samples,
// with a deterministic RNG stream derived from seed.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Reservoir{cap: capacity, state: seed}
}

// next advances the splitmix64 state. Callers hold r.mu.
func (r *Reservoir) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Observe feeds one latency into the stream. The first capacity
// observations fill the reservoir; from then on observation number N
// replaces a uniformly chosen slot with probability capacity/N.
func (r *Reservoir) Observe(d time.Duration) {
	r.mu.Lock()
	r.seen++
	if len(r.s) < r.cap {
		r.s = append(r.s, d)
	} else if j := r.next() % r.seen; j < uint64(r.cap) {
		r.s[j] = d
	}
	r.mu.Unlock()
}

// Seen returns how many observations the stream has carried.
func (r *Reservoir) Seen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// Len returns the current sample size (min(seen, capacity)).
func (r *Reservoir) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.s)
}

// Quantiles returns the sample's q-quantiles (q in [0,1]), one per
// requested q, computed over a sorted copy so concurrent Observes keep
// flowing. An empty reservoir returns zeros.
func (r *Reservoir) Quantiles(qs ...float64) []time.Duration {
	r.mu.Lock()
	sorted := append([]time.Duration(nil), r.s...)
	r.mu.Unlock()
	out := make([]time.Duration, len(qs))
	if len(sorted) == 0 {
		return out
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(q * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}
