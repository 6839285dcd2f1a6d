package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// fixture is an engine, a server over it, and the temporally split
// dataset that feeds them.
type fixture struct {
	ds     *repro.Dataset
	train  []repro.Action
	test   []repro.Action
	eng    *repro.Engine
	srv    *Server
	hs     *httptest.Server
	now    repro.Timestamp
	client *http.Client
}

func newFixture(t *testing.T, users int, seed uint64, opts Options) *fixture {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(users, seed))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	eng, err := repro.NewEngine(ds, eopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ForEngine(eng), opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &fixture{
		ds: ds, train: train, test: test, eng: eng, srv: srv, hs: hs,
		now:    test[len(test)-1].Time + 1,
		client: hs.Client(),
	}
}

func (fx *fixture) observe(t *testing.T, a repro.Action) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time})
	resp, err := fx.client.Post(fx.hs.URL+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func (fx *fixture) recommend(t *testing.T, u repro.UserID, k int, now repro.Timestamp) (recommendResponse, *http.Response) {
	t.Helper()
	resp, err := fx.client.Get(fmt.Sprintf("%s/recommend?user=%d&k=%d&now=%d", fx.hs.URL, u, k, now))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out recommendResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp
}

// assertMatchesEngine requires the HTTP response body to be
// bit-identical to a direct, uncached engine read.
func (fx *fixture) assertMatchesEngine(t *testing.T, u repro.UserID, k int, now repro.Timestamp, got recommendResponse) {
	t.Helper()
	want := fx.eng.Recommend(u, k, now)
	if len(got.Recommendations) != len(want) {
		t.Fatalf("user %d: served %d recs, engine has %d", u, len(got.Recommendations), len(want))
	}
	for i, w := range want {
		g := got.Recommendations[i]
		if g.Tweet != w.Tweet || g.Score != w.Score {
			t.Fatalf("user %d rank %d: served %+v, engine %+v", u, i, g, w)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	fx := newFixture(t, 200, 11, Options{})

	if resp := fx.observe(t, fx.test[0]); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("observe status = %d", resp.StatusCode)
	}
	bad := repro.Action{User: repro.UserID(fx.ds.NumUsers() + 1), Tweet: 0, Time: 1}
	if resp := fx.observe(t, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid observe status = %d", resp.StatusCode)
	}

	// A warm user: first read misses and fills, second hits; both match
	// the engine bit for bit.
	warm := fx.test[0].User
	got, resp := fx.recommend(t, warm, 10, fx.now)
	if v := resp.Header.Get("X-Cache"); v != "miss" && v != "bypass" {
		t.Fatalf("first read X-Cache = %q", v)
	}
	fx.assertMatchesEngine(t, warm, 10, fx.now, got)
	if resp.Header.Get("X-Cache") != "bypass" {
		got2, resp2 := fx.recommend(t, warm, 10, fx.now)
		if v := resp2.Header.Get("X-Cache"); v != "hit" {
			t.Fatalf("second read X-Cache = %q", v)
		}
		fx.assertMatchesEngine(t, warm, 10, fx.now, got2)
	}

	r, err := fx.client.Get(fmt.Sprintf("%s/similarity?u=%d&v=%d", fx.hs.URL, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var sim struct {
		Similarity *float64 `json:"similarity"`
	}
	if err := json.NewDecoder(r.Body).Decode(&sim); err != nil || sim.Similarity == nil {
		t.Fatalf("similarity decode: %v (%+v)", err, sim)
	}
	r.Body.Close()
	if want := fx.eng.Similarity(1, 2); *sim.Similarity != want {
		t.Fatalf("similarity = %v, engine %v", *sim.Similarity, want)
	}

	body, _ := json.Marshal(map[string]any{"seeds": []int{int(fx.test[0].User)}})
	r, err = fx.client.Post(fx.hs.URL+"/propagate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var prop struct {
		Scores map[string]float64 `json:"scores"`
	}
	if err := json.NewDecoder(r.Body).Decode(&prop); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if want := fx.eng.PropagateScores([]repro.UserID{fx.test[0].User}); len(prop.Scores) != len(want) {
		t.Fatalf("propagate returned %d scores, engine %d", len(prop.Scores), len(want))
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := fx.client.Get(fx.hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, r.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, fx.hs.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json; charset=utf-8, text/plain; q=0.5")
	r, err = fx.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("negotiated Content-Type = %q, want JSON (satellite: parsed media ranges)", ct)
	}
}

// TestObserveInvalidatesCache pins the delta-invalidation contract on
// the write path: after an observe touching user u, u's cached entry is
// gone and the next read recomputes — bit-identical to the engine.
func TestObserveInvalidatesCache(t *testing.T) {
	fx := newFixture(t, 200, 12, Options{})
	var u repro.UserID
	found := false
	for _, a := range fx.test {
		if len(fx.eng.Recommend(a.User, 10, fx.now)) > 0 {
			u, found = a.User, true
			break
		}
	}
	if !found {
		t.Skip("no warm test user in fixture")
	}
	if _, resp := fx.recommend(t, u, 10, fx.now); resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("first read did not fill")
	}
	if _, resp := fx.recommend(t, u, 10, fx.now); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("second read did not hit")
	}
	var act repro.Action
	for _, a := range fx.test {
		if a.User == u {
			act = a
			break
		}
	}
	fx.observe(t, act)
	got, resp := fx.recommend(t, u, 10, fx.now)
	if v := resp.Header.Get("X-Cache"); v == "hit" {
		t.Fatal("read after observe hit a stale entry")
	}
	fx.assertMatchesEngine(t, u, 10, fx.now, got)
}

// TestRefreshInvalidatesCache pins the other invalidation source: a
// graph refresh can move anyone's scores, so it clears everything.
func TestRefreshInvalidatesCache(t *testing.T) {
	fx := newFixture(t, 200, 13, Options{})
	for _, a := range fx.test[:200] {
		fx.observe(t, a)
	}
	users := []repro.UserID{}
	seen := map[repro.UserID]bool{}
	for _, a := range fx.test[:40] {
		if !seen[a.User] {
			seen[a.User] = true
			users = append(users, a.User)
		}
	}
	for _, u := range users {
		fx.recommend(t, u, 10, fx.now)
	}
	fx.eng.RefreshGraphStats(repro.UpdateFromScratch)
	for _, u := range users {
		got, resp := fx.recommend(t, u, 10, fx.now)
		if resp.Header.Get("X-Cache") == "hit" {
			t.Fatalf("user %d served from cache across a graph refresh", u)
		}
		fx.assertMatchesEngine(t, u, 10, fx.now, got)
	}
}

// TestConcurrentSoakBitIdentity is the race-mode soak: concurrent
// writers, readers, and graph refreshes through the full HTTP stack,
// then a quiesced sweep asserting every (possibly cached) response is
// bit-identical to an uncached engine read. Run with -race this also
// exercises the write path and the invalidation hook under fire.
func TestConcurrentSoakBitIdentity(t *testing.T) {
	fx := newFixture(t, 200, 14, Options{})
	const (
		writers = 4
		readers = 4
		reads   = 150
	)
	feed := fx.test
	if len(feed) > 1200 {
		feed = feed[:1200]
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(feed); i += writers {
				fx.observe(t, feed[i])
			}
		}(w)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				u := feed[(rdr*reads+i*7)%len(feed)].User
				fx.recommend(t, u, 10, fx.now)
			}
		}(rdr)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			fx.eng.RefreshGraphStats(repro.UpdateIncremental)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()

	// Quiesced: every resident cache entry must now reflect the final
	// state — any stale survivor shows up as a diff against the engine.
	for u := 0; u < fx.ds.NumUsers(); u++ {
		got, resp := fx.recommend(t, repro.UserID(u), 10, fx.now)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("user %d: status %d", u, resp.StatusCode)
		}
		fx.assertMatchesEngine(t, repro.UserID(u), 10, fx.now, got)
	}
	snap := fx.srv.Metrics()
	if snap.Counters["server/cache/hits"] == 0 {
		t.Error("soak produced zero cache hits; the cache never engaged")
	}
	// One POST /observe is one single-action engine batch.
	if got := snap.Counters["engine/observe/batches"]; got != uint64(len(feed)) {
		t.Errorf("engine saw %d observe batches, want %d", got, len(feed))
	}
}

// blockingReadBackend wedges RecommendWithColdStart open so the test
// can hold a known number of reads in flight.
type blockingReadBackend struct {
	Backend
	entered chan struct{}
	release chan struct{}
}

func (b *blockingReadBackend) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.RecommendWithColdStart(u, k, now)
}

// TestQueueAwareAdmission pins the in-flight admission bound: with
// MaxInFlight requests wedged inside the server, the next arrival is
// shed with 429 before it deepens the queue, the shed is counted, and
// service resumes once the queue drains.
func TestQueueAwareAdmission(t *testing.T) {
	ds, err := gen.Generate(gen.DefaultConfig(120, 6))
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	eng, err := repro.NewEngine(ds, eopts)
	if err != nil {
		t.Fatal(err)
	}
	const wedged = 2
	blocking := &blockingReadBackend{
		Backend: ForEngine(eng),
		entered: make(chan struct{}, wedged),
		release: make(chan struct{}),
	}
	srv := New(blocking, Options{MaxInFlight: wedged})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	codes := make(chan int, wedged)
	for i := 0; i < wedged; i++ {
		go func(u int) {
			resp, err := hs.Client().Get(fmt.Sprintf("%s/recommend?user=%d&k=5&now=1", hs.URL, u))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	for i := 0; i < wedged; i++ {
		<-blocking.entered // both reads are inside the backend
	}

	// The box is full: the next arrival must be shed at the door.
	resp, err := hs.Client().Get(hs.URL + "/recommend?user=50&k=5&now=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue shed carries no Retry-After")
	}
	if got := srv.Metrics().Counter("server/shed/queue_shed"); got == 0 {
		t.Error("queue_shed counter did not move")
	}
	if got := srv.Metrics().Gauge("server/http/in_flight"); got != wedged {
		t.Errorf("in_flight gauge = %d, want %d", got, wedged)
	}

	close(blocking.release)
	for i := 0; i < wedged; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("wedged read finished with status %d", code)
		}
	}
	// Drained: the same request is admitted again.
	resp, err = hs.Client().Get(hs.URL + "/recommend?user=50&k=5&now=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d, want 200", resp.StatusCode)
	}
}

// writeStub is a Backend whose ObserveBatch answers every slot with
// slotErr and, when gate is set, parks inside the backend until it is
// closed, counting arrivals on entered.
type writeStub struct {
	stubBackend
	slotErr error
	entered chan struct{}
	gate    chan struct{}
}

func (s *writeStub) ObserveBatch(actions []repro.Action) []error {
	if s.gate != nil {
		s.entered <- struct{}{}
		<-s.gate
	}
	errs := make([]error, len(actions))
	for i := range errs {
		errs[i] = s.slotErr
	}
	return errs
}

// TestObserveWriteContract pins how POST /observe maps the backend's
// per-slot error onto the wire: a degraded WAL append is a success
// flagged X-WAL-Degraded, a rejected slot is a 400, and with
// MaxInFlight writes wedged in the backend a further write is shed with
// 429 + Retry-After and counted as a queue shed.
func TestObserveWriteContract(t *testing.T) {
	body := `{"user":1,"tweet":2,"time":3}`
	post := func(h http.Handler) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewBufferString(body)))
		return w
	}
	newStub := func(slotErr error) *writeStub {
		return &writeStub{stubBackend: stubBackend{hist: metrics.NewRegistry().Histogram("h")}, slotErr: slotErr}
	}

	t.Run("clean", func(t *testing.T) {
		srv := New(newStub(nil), Options{})
		defer srv.Close()
		w := post(srv.Handler())
		if w.Code != http.StatusNoContent || w.Header().Get("X-WAL-Degraded") != "" {
			t.Fatalf("status %d, X-WAL-Degraded %q; want 204 and no flag", w.Code, w.Header().Get("X-WAL-Degraded"))
		}
	})

	t.Run("degraded", func(t *testing.T) {
		srv := New(newStub(fmt.Errorf("repro: WAL degraded: %w", repro.ErrWALRecordLogged)), Options{})
		defer srv.Close()
		w := post(srv.Handler())
		if w.Code != http.StatusNoContent {
			t.Fatalf("degraded slot: status %d, want 204", w.Code)
		}
		if got := w.Header().Get("X-WAL-Degraded"); got != "1" {
			t.Fatalf("degraded slot: X-WAL-Degraded = %q, want 1", got)
		}
	})

	t.Run("rejected", func(t *testing.T) {
		srv := New(newStub(errors.New("repro: user 1 out of range")), Options{})
		defer srv.Close()
		w := post(srv.Handler())
		if w.Code != http.StatusBadRequest {
			t.Fatalf("rejected slot: status %d, want 400", w.Code)
		}
		if got := srv.Metrics().Counter("server/http/bad_requests"); got != 1 {
			t.Errorf("bad_requests = %d, want 1", got)
		}
	})

	t.Run("wedged", func(t *testing.T) {
		const wedged = 2
		stub := newStub(nil)
		stub.entered = make(chan struct{}, wedged)
		stub.gate = make(chan struct{})
		srv := New(stub, Options{MaxInFlight: wedged})
		defer srv.Close()
		h := srv.Handler()
		codes := make(chan int, wedged)
		for i := 0; i < wedged; i++ {
			go func() { codes <- post(h).Code }()
		}
		for i := 0; i < wedged; i++ {
			<-stub.entered // both writes are inside the backend
		}
		w := post(h)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("write past MaxInFlight: status %d, want 429", w.Code)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Error("write shed carries no Retry-After")
		}
		if got := srv.Metrics().Counter("server/shed/queue_shed"); got != 1 {
			t.Errorf("queue_shed = %d, want 1", got)
		}
		close(stub.gate)
		for i := 0; i < wedged; i++ {
			if code := <-codes; code != http.StatusNoContent {
				t.Fatalf("wedged write finished with status %d", code)
			}
		}
	})
}
