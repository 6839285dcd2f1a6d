package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/server"
)

// reqHeader carries the request identifier of a traced request: "r<seq>"
// for a read, "w<user<<32|tweet>" for a write. Its presence is what turns
// the child's span decorators on for that request.
const reqHeader = "X-Bench-Req"

// sutReady is the one line the child prints on stdout once it serves.
type sutReady struct {
	Addr  string    `json:"addr"`
	LoadS float64   `json:"load_s"`
	Node  nodeSetup `json:"node"`
	Edges int       `json:"edges"` // of the similarity graph the node starts with
}

// sutReport is GET /bench/snap: the child's view of itself.
type sutReport struct {
	Proc        procSnap                `json:"proc"`
	Refreshes   []repro.RefreshStats    `json:"refreshes"`
	Checkpoints []repro.CheckpointStats `json:"checkpoints"`
	BgErr       string                  `json:"bg_err,omitempty"`
}

// sut is the system-under-test process of the HTTP workloads: it loads
// the dataset file the parent wrote, builds the node (buildNode), and
// serves internal/server over it on a loopback port. Besides the node's
// own endpoints it mounts /bench/* for the parent: a process snapshot, a
// direct (uncached, unserialized) recommend for the quiescence check, the
// background refresh+checkpoint loop, and stop.
type sut struct {
	eng *repro.Engine
	dir string
	tr  *tracer // nil when untraced

	// reads maps a user with a traced read in flight to its request
	// identifier; writes holds the action keys of traced writes in
	// flight. The Backend interface carries no request context, so this
	// is how a backend span finds the handler span that caused it. Two
	// traced reads of one user in flight at once share one entry — the
	// later handler's identifier wins for both backend spans.
	mu     sync.Mutex
	reads  map[repro.UserID]string
	writes map[uint64]struct{}

	bgMu   sync.Mutex
	bgStop chan struct{}
	bgDone chan struct{}
	report sutReport // Refreshes/Checkpoints/BgErr, guarded by bgMu
}

func sutMain(args []string) int {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	dsPath := fs.String("dataset", "", "dataset file written by the parent")
	dir := fs.String("dir", "", "durability directory (fresh)")
	seed := fs.Uint64("seed", 1, "seed of the restart check's user sample")
	trace := fs.Bool("trace", false, "record spans for requests that carry "+reqHeader)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runSUT(*dsPath, *dir, *seed, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "simbench sut:", err)
		return 1
	}
	return 0
}

func runSUT(dsPath, dir string, seed uint64, trace bool) error {
	start := time.Now()
	ds, err := dataset.LoadFile(dsPath)
	if err != nil {
		return err
	}
	loadS := time.Since(start).Seconds()
	eng, _, ns, err := buildNode(ds, dir, seed)
	if err != nil {
		return err
	}
	defer eng.Close()

	s := &sut{eng: eng, dir: dir, reads: map[repro.UserID]string{}, writes: map[uint64]struct{}{}}
	backend := server.ForEngine(eng)
	if trace {
		s.tr = &tracer{}
		backend = tracedBackend{Backend: backend, s: s}
	}
	srv := server.New(backend, server.Options{})
	defer srv.Close()
	handler := srv.Handler()
	if trace {
		handler = s.traceHandler(handler)
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/bench/snap", s.handleSnap)
	mux.HandleFunc("/bench/direct", s.handleDirect)
	mux.HandleFunc("/bench/bg", s.handleBg)
	mux.HandleFunc("/bench/stop", func(w http.ResponseWriter, _ *http.Request) {
		s.stopBg()
		if err := writeSpans(filepath.Join(dir, "spans.jsonl"), s.tr.take()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		stopOnce.Do(func() { close(stop) })
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	// The parent holds the other end of stdin for as long as it lives: EOF
	// means it is gone (even by SIGKILL) and nobody will call /bench/stop.
	orphaned := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(orphaned)
	}()

	ready, _ := json.Marshal(sutReady{Addr: ln.Addr().String(), LoadS: loadS, Node: ns, Edges: eng.GraphCharacteristics(0).Edges})
	fmt.Println(string(ready))

	select {
	case <-stop:
	case <-orphaned:
	case err := <-served:
		return err
	}
	s.stopBg()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}

func (s *sut) handleSnap(w http.ResponseWriter, _ *http.Request) {
	s.bgMu.Lock()
	rep := s.report
	s.bgMu.Unlock()
	rep.Proc = readProcSnap()
	json.NewEncoder(w).Encode(rep)
}

// handleDirect answers like GET /recommend but straight from the engine:
// no cache, no batcher, no admission.
func (s *sut) handleDirect(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err1 := strconv.ParseUint(q.Get("user"), 10, 32)
	now, err2 := strconv.ParseInt(q.Get("now"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "user and now required", http.StatusBadRequest)
		return
	}
	recs, cold := s.eng.RecommendWithColdStart(repro.UserID(u), recK, repro.Timestamp(now))
	out := recommendBody{Cold: cold, Recommendations: make([]wireRec, len(recs))}
	for i, rec := range recs {
		out.Recommendations[i] = wireRec{rec.Tweet, rec.Score}
	}
	json.NewEncoder(w).Encode(out)
}

// handleBg starts (?period_ms=N) or stops (no period) the background
// loop: every period one RefreshGraphStats(Incremental), and with every
// third of them one Checkpoint — first tick half a period in, so a
// window of ten periods sees exactly ten refreshes and three checkpoints.
func (s *sut) handleBg(w http.ResponseWriter, r *http.Request) {
	ms, err := strconv.Atoi(r.URL.Query().Get("period_ms"))
	if err != nil || ms <= 0 {
		s.stopBg()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.bgMu.Lock()
	defer s.bgMu.Unlock()
	if s.bgStop != nil {
		http.Error(w, "background loop already running", http.StatusConflict)
		return
	}
	s.bgStop, s.bgDone = make(chan struct{}), make(chan struct{})
	go s.bgLoop(time.Duration(ms)*time.Millisecond, s.bgStop, s.bgDone)
	w.WriteHeader(http.StatusNoContent)
}

func (s *sut) stopBg() {
	s.bgMu.Lock()
	stop, done := s.bgStop, s.bgDone
	s.bgStop, s.bgDone = nil, nil
	s.bgMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (s *sut) bgLoop(period time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	timer := time.NewTimer(period / 2)
	defer timer.Stop()
	for tick := 1; ; tick++ {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		timer.Reset(period)
		start := time.Now()
		rs := s.eng.RefreshGraphStats(repro.UpdateIncremental)
		s.tr.add("engine.refresh", "bg"+strconv.Itoa(tick), "", start, time.Since(start), 0)
		s.bgMu.Lock()
		s.report.Refreshes = append(s.report.Refreshes, rs)
		s.bgMu.Unlock()
		if tick%3 != 2 {
			continue
		}
		start = time.Now()
		cs, err := s.eng.Checkpoint(s.dir)
		s.tr.add("engine.checkpoint", "bg"+strconv.Itoa(tick), "", start, time.Since(start), 0)
		s.bgMu.Lock()
		if err != nil {
			s.report.BgErr = err.Error()
		} else {
			s.report.Checkpoints = append(s.report.Checkpoints, cs)
		}
		s.bgMu.Unlock()
	}
}

// traceHandler records handler.recommend / handler.observe spans around
// the server's whole handler for requests that carry reqHeader, and
// registers the request so the backend decorator can name its parent.
func (s *sut) traceHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(reqHeader)
		if req == "" {
			next.ServeHTTP(w, r)
			return
		}
		name, parent := "handler.recommend", "client.read"
		if req[0] == 'w' {
			name, parent = "handler.observe", "client.write"
			key, _ := strconv.ParseUint(req[1:], 10, 64)
			s.mu.Lock()
			s.writes[key] = struct{}{}
			s.mu.Unlock()
			defer func() {
				s.mu.Lock()
				delete(s.writes, key)
				s.mu.Unlock()
			}()
		} else {
			u, _ := strconv.ParseUint(r.URL.Query().Get("user"), 10, 32)
			s.mu.Lock()
			s.reads[repro.UserID(u)] = req
			s.mu.Unlock()
			defer func() {
				s.mu.Lock()
				delete(s.reads, repro.UserID(u))
				s.mu.Unlock()
			}()
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		s.tr.add(name, req, parent, start, time.Since(start), 0)
	})
}

// tracedBackend decorates server.Backend with backend.recommend and
// backend.observe_batch spans for traced requests; everything else
// passes through.
type tracedBackend struct {
	server.Backend
	s *sut
}

func (b tracedBackend) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	b.s.mu.Lock()
	req, ok := b.s.reads[u]
	b.s.mu.Unlock()
	if !ok {
		return b.Backend.RecommendWithColdStart(u, k, now)
	}
	start := time.Now()
	recs, cold := b.Backend.RecommendWithColdStart(u, k, now)
	b.s.tr.add("backend.recommend", req, "handler.recommend", start, time.Since(start), 0)
	return recs, cold
}

// ObserveBatch records one backend.observe_batch span per traced action
// in the batch (same interval, n = batch size): a batch has no single
// parent, each traced handler.observe gets its own copy as its child.
func (b tracedBackend) ObserveBatch(actions []repro.Action) []error {
	var traced []uint64
	b.s.mu.Lock()
	for _, a := range actions {
		if _, ok := b.s.writes[actionKey(a.User, a.Tweet)]; ok {
			traced = append(traced, actionKey(a.User, a.Tweet))
		}
	}
	b.s.mu.Unlock()
	start := time.Now()
	errs := b.Backend.ObserveBatch(actions)
	d := time.Since(start)
	for _, key := range traced {
		b.s.tr.add("backend.observe_batch", "w"+strconv.FormatUint(key, 10), "handler.observe", start, d, len(actions))
	}
	return errs
}

// wireRec and recommendBody mirror the fields of internal/server's
// GET /recommend response this benchmark reads.
type wireRec struct {
	Tweet repro.TweetID `json:"tweet"`
	Score float64       `json:"score"`
}

type recommendBody struct {
	Cold            bool      `json:"cold"`
	Recommendations []wireRec `json:"recommendations"`
}
