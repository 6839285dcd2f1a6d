package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/replica"
)

// Options configures a Server. The zero value serves with sensible
// defaults and shedding disabled.
type Options struct {
	// CacheEntries bounds the recommendation cache (total cached
	// request shapes; <= 0 takes 65536).
	CacheEntries int
	// P99Budget engages load shedding when the windowed p99 of the
	// backend's recommend latency exceeds it; 0 disables shedding.
	P99Budget time.Duration
	// ShedWindow is the histogram-delta window (<= 0 takes 250ms).
	ShedWindow time.Duration
	// RetryAfter is the back-off hint on 429 responses (<= 0 takes 1s).
	RetryAfter time.Duration
	// Clock overrides time.Now, for shed tests.
	Clock func() time.Time
	// MaxInFlight sheds reads and writes when more than this many HTTP
	// requests are being served at once — the queue-aware second shed
	// signal: engine p99 reacts to slow computation, this reacts to pure
	// HTTP queueing on a saturated box, and it is the bound on a write
	// storm against a wedged backend. 0 disables.
	MaxInFlight int
	// Replication, when set, mounts the leader's WAL-shipping endpoints
	// under /wal/ so followers can bootstrap and tail this server.
	Replication *replica.Leader
	// MaxLag, when serving a replica backend (ForFollower), rejects
	// reads with 503 once replication lag exceeds this many records.
	// 0 means annotate (X-Replica-Lag) but never reject.
	MaxLag uint64
}

// Server is the HTTP serving layer. Create with New, mount Handler on
// any listener, and Close when done (Close detaches the invalidation
// hook; the backend outlives the server).
//
// Endpoints:
//
//	POST /observe     {"user":u,"tweet":t,"time":ts} → 204; a degraded
//	                  WAL append sets X-WAL-Degraded: 1 (applied, durability
//	                  in doubt); invalid IDs → 400; sheds with 429 +
//	                  Retry-After past MaxInFlight
//	GET  /recommend   ?user=u&k=k[&now=ts] → {"user":u,"now":ts,"cold":b,
//	                  "recommendations":[{"tweet":t,"score":s}]}; X-Cache:
//	                  hit|miss|bypass; sheds with 429 + Retry-After
//	GET  /similarity  ?u=a&v=b → {"u":a,"v":b,"similarity":s}
//	POST /propagate   {"seeds":[u...]} → {"scores":{"u":p,...}}
//	GET  /metrics     backend + server instruments (text, or JSON via
//	                  Accept/format negotiation)
//	GET  /healthz     200 "ok"
type Server struct {
	backend Backend
	replica ReplicaSource // non-nil when backend is a read replica
	cache   *recCache
	shed    *shedder
	reg     *metrics.Registry
	mux     *http.ServeMux

	// inFlight counts HTTP requests currently being served; with
	// Options.MaxInFlight it is the queue-aware shed signal.
	inFlight    atomic.Int64
	maxInFlight int64
	maxLag      uint64
	retryAfter  time.Duration

	// lastTime tracks the newest observed timestamp, the default "now"
	// for recommend requests that do not pin one: recommendations are
	// freshness-filtered, so the serving default must advance with the
	// stream, not with the wall clock the dataset knows nothing about.
	lastTime atomic.Int64

	mRecommends *metrics.Counter // server/http/recommends
	mObserves   *metrics.Counter // server/http/observes
	mBadReqs    *metrics.Counter // server/http/bad_requests
	mQueueShed  *metrics.Counter // server/shed/queue_shed
	mLagShed    *metrics.Counter // server/shed/lag_shed
	gInFlight   *metrics.Gauge   // server/http/in_flight
	mLatency    *metrics.Histogram
}

// New wires a server over a backend and installs the cache
// invalidation hook (any previously installed score-change hook is
// replaced).
func New(b Backend, opts Options) *Server {
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 1 << 16
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	reg := metrics.NewRegistry()
	s := &Server{
		backend:     b,
		cache:       newRecCache(reg, opts.CacheEntries),
		reg:         reg,
		maxInFlight: int64(opts.MaxInFlight),
		maxLag:      opts.MaxLag,
		retryAfter:  opts.RetryAfter,
	}
	if rs, ok := b.(ReplicaSource); ok {
		s.replica = rs
	}
	s.shed = newShedder(b.RecommendLatency(), opts.P99Budget, opts.ShedWindow, opts.RetryAfter, opts.Clock, reg)
	s.mRecommends = reg.Counter("server/http/recommends")
	s.mObserves = reg.Counter("server/http/observes")
	s.mBadReqs = reg.Counter("server/http/bad_requests")
	s.mQueueShed = reg.Counter("server/shed/queue_shed")
	s.mLagShed = reg.Counter("server/shed/lag_shed")
	s.gInFlight = reg.Gauge("server/http/in_flight")
	s.mLatency = reg.Histogram("server/http/latency_ns")

	b.SetOnScoresChanged(s.cache.Invalidate)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/observe", s.handleObserve)
	s.mux.HandleFunc("/recommend", s.handleRecommend)
	s.mux.HandleFunc("/similarity", s.handleSimilarity)
	s.mux.HandleFunc("/propagate", s.handlePropagate)
	s.mux.Handle("/metrics", metrics.Handler(s.Metrics))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	if opts.Replication != nil {
		s.mux.Handle("/wal/", opts.Replication.Handler())
	}
	return s
}

// Handler returns the HTTP handler tree, ready to mount.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.gInFlight.Set(s.inFlight.Add(1))
		s.mux.ServeHTTP(w, r)
		s.gInFlight.Set(s.inFlight.Add(-1))
		s.mLatency.ObserveDuration(time.Since(start))
	})
}

// Close detaches the server from the backend: the invalidation hook is
// uninstalled so a dead server's cache no longer rides the write path.
func (s *Server) Close() error {
	s.backend.SetOnScoresChanged(nil)
	return nil
}

// Metrics merges the backend's snapshot with the server's own
// instruments (server/*) into one view.
func (s *Server) Metrics() metrics.Snapshot {
	out := s.backend.Metrics()
	own := s.reg.Snapshot()
	if out.Counters == nil {
		out.Counters = map[string]uint64{}
	}
	for k, v := range own.Counters {
		out.Counters[k] = v
	}
	if out.Gauges == nil {
		out.Gauges = map[string]int64{}
	}
	for k, v := range own.Gauges {
		out.Gauges[k] = v
	}
	if out.Histograms == nil {
		out.Histograms = map[string]metrics.HistogramSnapshot{}
	}
	for k, v := range own.Histograms {
		out.Histograms[k] = v
	}
	return out
}

// observeRequest is the POST /observe body.
type observeRequest struct {
	User  repro.UserID    `json:"user"`
	Tweet repro.TweetID   `json:"tweet"`
	Time  repro.Timestamp `json:"time"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.replica != nil {
		// A replica's only writer is its tail loop; an accepted observe
		// here would apply without being in the leader's log and diverge
		// the replica forever.
		http.Error(w, "read-only replica; observe on the leader", http.StatusForbidden)
		return
	}
	if !s.admitInFlight(w) {
		return
	}
	var req observeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badRequest(w, fmt.Sprintf("bad body: %v", err))
		return
	}
	s.mObserves.Inc()
	err := s.backend.ObserveBatch([]repro.Action{{User: req.User, Tweet: req.Tweet, Time: req.Time}})[0]
	switch {
	case err == nil:
	case errors.Is(err, repro.ErrWALRecordLogged):
		// Applied and logged; durability in doubt. The action is live —
		// report success, flag the doubt.
		w.Header().Set("X-WAL-Degraded", "1")
	default:
		s.badRequest(w, err.Error())
		return
	}
	s.advanceTime(req.Time)
	w.WriteHeader(http.StatusNoContent)
}

// advanceTime folds one observed timestamp into the default-now watermark.
func (s *Server) advanceTime(t repro.Timestamp) {
	for {
		cur := s.lastTime.Load()
		if int64(t) <= cur || s.lastTime.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// wireRec is one recommendation on the wire.
type wireRec struct {
	Tweet repro.TweetID `json:"tweet"`
	Score float64       `json:"score"`
}

// recommendResponse is the GET /recommend body.
type recommendResponse struct {
	User            repro.UserID    `json:"user"`
	Now             repro.Timestamp `json:"now"`
	Cold            bool            `json:"cold"`
	Recommendations []wireRec       `json:"recommendations"`
}

// admitInFlight is the queue-aware admission check shared by reads and
// writes: too many requests already inside the server means new
// arrivals would only deepen the queue. It catches pure HTTP queueing
// that the engine-latency signal cannot see (the engine is fine; the
// box is not), and a write storm against a wedged backend. A refused
// request has been answered with 429 + Retry-After.
func (s *Server) admitInFlight(w http.ResponseWriter) bool {
	if s.maxInFlight <= 0 || s.inFlight.Load() <= s.maxInFlight {
		return true
	}
	s.mQueueShed.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter/time.Second)))
	http.Error(w, "request queue full, backing off", http.StatusTooManyRequests)
	return false
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if !s.admitInFlight(w) {
		return
	}
	if !s.shed.Admit() {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.shed.RetryAfter()/time.Second)))
		http.Error(w, "overloaded, backing off", http.StatusTooManyRequests)
		return
	}
	if !s.annotateLag(w) {
		return
	}
	q := r.URL.Query()
	user, err := strconv.ParseUint(q.Get("user"), 10, 32)
	if err != nil {
		s.badRequest(w, "user: "+err.Error())
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k <= 0 {
		s.badRequest(w, "k must be a positive integer")
		return
	}
	now := repro.Timestamp(s.lastTime.Load() + 1)
	if v := q.Get("now"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.badRequest(w, "now: "+err.Error())
			return
		}
		now = repro.Timestamp(n)
	}
	s.mRecommends.Inc()
	u := repro.UserID(user)

	if recs, ok := s.cache.Get(u, k, now); ok {
		s.writeRecommend(w, "hit", u, now, false, recs)
		return
	}
	// Begin BEFORE computing: if an invalidation lands mid-computation,
	// the token is stale and Put discards the fill.
	tok := s.cache.Begin(u)
	recs, cold := s.backend.RecommendWithColdStart(u, k, now)
	if cold {
		// Cold-start results aggregate other users' pools; no per-user
		// invalidation signal covers them, so they are never cached.
		s.cache.Bypass()
		s.writeRecommend(w, "bypass", u, now, true, recs)
		return
	}
	s.cache.Put(tok, k, now, recs)
	s.writeRecommend(w, "miss", u, now, false, recs)
}

func (s *Server) writeRecommend(w http.ResponseWriter, verdict string, u repro.UserID, now repro.Timestamp, cold bool, recs []repro.Recommendation) {
	w.Header().Set("X-Cache", verdict)
	w.Header().Set("Content-Type", "application/json")
	wire := make([]wireRec, len(recs))
	for i, rec := range recs {
		wire[i] = wireRec{Tweet: rec.Tweet, Score: rec.Score}
	}
	json.NewEncoder(w).Encode(recommendResponse{User: u, Now: now, Cold: cold, Recommendations: wire})
}

// annotateLag stamps the replica staleness contract onto a read
// response: X-Replica-Lag always, and a 503 once lag exceeds MaxLag
// (returning false — the caller must not serve). Leaders (no replica
// source) pass through untouched.
func (s *Server) annotateLag(w http.ResponseWriter) bool {
	if s.replica == nil {
		return true
	}
	lag, ok := s.replica.ReplicaLag()
	if !ok {
		return true
	}
	w.Header().Set("X-Replica-Lag", strconv.FormatUint(lag, 10))
	if s.maxLag > 0 && lag > s.maxLag {
		s.mLagShed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter/time.Second)))
		http.Error(w, fmt.Sprintf("replica lag %d exceeds bound %d", lag, s.maxLag), http.StatusServiceUnavailable)
		return false
	}
	return true
}

func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	if !s.annotateLag(w) {
		return
	}
	q := r.URL.Query()
	u, err1 := strconv.ParseUint(q.Get("u"), 10, 32)
	v, err2 := strconv.ParseUint(q.Get("v"), 10, 32)
	if err1 != nil || err2 != nil {
		s.badRequest(w, "u and v must be user IDs")
		return
	}
	sim := s.backend.Similarity(repro.UserID(u), repro.UserID(v))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"u": u, "v": v, "similarity": sim})
}

// propagateRequest is the POST /propagate body.
type propagateRequest struct {
	Seeds []repro.UserID `json:"seeds"`
}

func (s *Server) handlePropagate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req propagateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badRequest(w, fmt.Sprintf("bad body: %v", err))
		return
	}
	scores := s.backend.PropagateScores(req.Seeds)
	out := make(map[string]float64, len(scores))
	for u, p := range scores {
		out[strconv.FormatUint(uint64(u), 10)] = p
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"scores": out})
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.mBadReqs.Inc()
	http.Error(w, msg, http.StatusBadRequest)
}
