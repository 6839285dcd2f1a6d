// Command netload measures the NETWORK serving path: it mounts
// internal/server on a real TCP listener, drives it with HTTP clients,
// and emits BENCH_serving.json. Where cmd/serveload measures the
// engine's in-process concurrency, netload measures what a front-end
// fleet actually sees — JSON encode/decode, socket hops, the
// delta-invalidated cache, and the load shedder.
//
// Two phases:
//
//  1. Closed loop: -writers clients stream the test split through POST
//     /observe while -readers clients issue GET /recommend over a hot
//     user set, each waiting for its response before sending the next.
//     Reports sustained throughput and client-side p50/p90/p99 from a
//     uniform reservoir, plus the server's cache hit ratio.
//  2. Open loop (overload): requests are issued on a fixed schedule at
//     -overload-factor times the measured closed-loop read throughput,
//     whether or not earlier requests have completed — the flash-crowd
//     shape that collapses unshed servers. The server for this phase
//     runs with a p99 budget calibrated from phase 1 (x -budget-factor),
//     so shedding engages under the storm; the tool reports the p99 of
//     ADMITTED requests and the shed counts, which is the bounded-tail
//     claim BENCH_serving.json exists to document.
//
// Usage:
//
//	netload [-users 2000] [-seed 1] [-k 10] [-shards 1]
//	        [-readers 8] [-writers 4] [-duration 5s]
//	        [-overload-duration 5s] [-overload-factor 3]
//	        [-budget-factor 2] [-cache-entries 65536]
//	        [-addr 127.0.0.1:0] [-out BENCH_serving.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netload: ")

	var (
		users        = flag.Int("users", 2000, "number of users to generate")
		seed         = flag.Uint64("seed", 1, "generator seed")
		k            = flag.Int("k", 10, "recommendations per request")
		shards       = flag.Int("shards", 1, "engine shards behind the router (1 = single engine)")
		readers      = flag.Int("readers", 8, "closed-loop reader clients")
		writers      = flag.Int("writers", 4, "closed-loop writer clients")
		duration     = flag.Duration("duration", 5*time.Second, "closed-loop phase length")
		overloadDur  = flag.Duration("overload-duration", 5*time.Second, "open-loop overload phase length (0 = skip)")
		overloadFac  = flag.Float64("overload-factor", 3, "open-loop arrival rate as a multiple of closed-loop read throughput")
		budgetFactor = flag.Float64("budget-factor", 2, "overload-phase p99 budget as a multiple of the calibrated uncontended read p99")
		cacheEntries = flag.Int("cache-entries", 1<<16, "recommendation cache capacity")
		addr         = flag.String("addr", "127.0.0.1:0", "listen address")
		out          = flag.String("out", "BENCH_serving.json", "output JSON path")
		hotSet       = flag.Int("hot-users", 256, "hot user set readers concentrate on (cache locality)")
		maxAgeHours  = flag.Int64("max-age-hours", 0, "freshness horizon in simulated hours (0 = whole history fresh)")
	)
	flag.Parse()

	ds, err := gen.Generate(gen.DefaultConfig(*users, *seed))
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	// The generator simulates ~90 days; with the paper's 72 h horizon
	// almost every pool tweet is stale at stream end and every request
	// falls to cold start — which bypasses the cache by design. The
	// serving bench wants warm-path behaviour, so default to "everything
	// fresh" and let -max-age-hours restore a real horizon.
	if *maxAgeHours > 0 {
		eopts.MaxAge = repro.Timestamp(*maxAgeHours) * repro.Hour
	} else {
		eopts.MaxAge = 1 << 40
	}

	t0 := time.Now()
	var backend server.Backend
	var engineHists []*metrics.Histogram
	if *shards > 1 {
		router, err := shard.New(ds, eopts, shard.Options{Shards: *shards})
		if err != nil {
			log.Fatal(err)
		}
		defer router.Close()
		backend = server.ForRouter(router)
	} else {
		eng, err := repro.NewEngine(ds, eopts)
		if err != nil {
			log.Fatal(err)
		}
		backend = server.ForEngine(eng)
	}
	engineHists = backend.RecommendLatency()
	fmt.Printf("trained %d users / %d actions on %d shard(s) in %v (GOMAXPROCS=%d)\n",
		ds.NumUsers(), len(train), *shards, time.Since(t0).Round(time.Millisecond), runtime.GOMAXPROCS(0))

	now := test[len(test)-1].Time + 1
	hot := *hotSet
	if hot > ds.NumUsers() {
		hot = ds.NumUsers()
	}

	// ---- Phase 0: calibration ----
	// A short read-only pass (cache-busting "now" values, no writers)
	// measures the engine's UNCONTENDED read tail through the full
	// network path. The overload budget is a multiple of this number:
	// calibrating against the mixed workload instead would bake the
	// write-lock contention into the budget and the storm would never
	// read as anomalous.
	calSrv := server.New(backend, server.Options{CacheEntries: *cacheEntries})
	calLn, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	calHS := &http.Server{Handler: calSrv.Handler()}
	go calHS.Serve(calLn)
	preCal := snapshotHists(engineHists)
	runCalibration("http://"+calLn.Addr().String(), *k, now, hot, 1500*time.Millisecond)
	calP99 := time.Duration(deltaP99(preCal, snapshotHists(engineHists)))
	calHS.Close()
	calSrv.Close()
	fmt.Printf("calibration: uncontended engine read p99 %v\n", calP99.Round(time.Microsecond))

	// ---- Phase 1: closed loop ----
	srv := server.New(backend, server.Options{CacheEntries: *cacheEntries})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	preSnap := snapshotHists(engineHists)
	closed := runClosedLoop(base, test, *readers, *writers, *k, now, hot, *duration, *seed)
	fillCacheStats(&closed, srv.Metrics())
	engineP99 := time.Duration(deltaP99(preSnap, snapshotHists(engineHists)))
	hs.Close()
	srv.Close()

	fmt.Printf("closed loop: %d reads (%.0f req/s, p99 %v), %d writes (%.0f obs/s), cache hit ratio %.3f, engine p99 %v\n",
		closed.Reads, closed.ReadQPS, time.Duration(closed.ReadP99Us*1e3).Round(time.Microsecond),
		closed.Writes, closed.WriteQPS, closed.Cache.HitRatio, engineP99.Round(time.Microsecond))

	// ---- Phase 2: open loop against a budgeted server ----
	var over *overloadResult
	if *overloadDur > 0 {
		budget := time.Duration(float64(calP99) * *budgetFactor)
		if budget <= 0 {
			budget = time.Millisecond
		}
		srv2 := server.New(backend, server.Options{
			CacheEntries: *cacheEntries,
			P99Budget:    budget,
			ShedWindow:   200 * time.Millisecond,
			RetryAfter:   time.Second,
		})
		ln2, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatal(err)
		}
		hs2 := &http.Server{Handler: srv2.Handler()}
		go hs2.Serve(ln2)
		base2 := "http://" + ln2.Addr().String()

		rate := closed.ReadQPS * *overloadFac
		over = runOpenLoop(base2, test, *writers, *k, now, hot, *overloadDur, rate, *seed)
		overSnap := srv2.Metrics()
		over.Budget = budget.Nanoseconds()
		over.ShedEngagements = overSnap.Counters["server/shed/engagements"]
		over.ShedServerCount = overSnap.Counters["server/shed/shed"]
		hs2.Close()
		srv2.Close()

		fmt.Printf("open loop: target %.0f req/s, sent %d, ok %d, shed %d (engagements %d), admitted p99 %v (budget %v)\n",
			rate, over.Sent, over.OK, over.Shed429, over.ShedEngagements,
			time.Duration(over.AdmittedP99Us*1e3).Round(time.Microsecond), budget.Round(time.Microsecond))
	}

	report := buildReport(*users, *seed, *shards, *readers, *writers, *k, closed, over)
	report.CalP99Us = float64(calP99.Microseconds())
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

type cacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Bypass        uint64  `json:"bypass"`
	Invalidations uint64  `json:"invalidations"`
	HitRatio      float64 `json:"hit_ratio"`
}

type closedResult struct {
	DurationMs float64    `json:"duration_ms"`
	Reads      int64      `json:"reads"`
	Writes     int64      `json:"writes"`
	ReadQPS    float64    `json:"read_qps"`
	WriteQPS   float64    `json:"write_qps"`
	ReadP50Us  float64    `json:"read_p50_us"`
	ReadP90Us  float64    `json:"read_p90_us"`
	ReadP99Us  float64    `json:"read_p99_us"`
	Samples    int        `json:"latency_samples"`
	SampledOf  uint64     `json:"latency_sampled_of"`
	Degraded   int64      `json:"wal_degraded_observes"`
	Cache      cacheStats `json:"cache"`
}

type overloadResult struct {
	DurationMs      float64 `json:"duration_ms"`
	TargetQPS       float64 `json:"target_qps"`
	Sent            int64   `json:"sent"`
	OK              int64   `json:"ok"`
	Shed429         int64   `json:"shed_429"`
	Dropped         int64   `json:"schedule_overrun_drops"`
	AdmittedP50Us   float64 `json:"admitted_p50_us"`
	AdmittedP99Us   float64 `json:"admitted_p99_us"`
	Samples         int     `json:"latency_samples"`
	Budget          int64   `json:"p99_budget_ns"`
	ShedEngagements uint64  `json:"shed_engagements"`
	ShedServerCount uint64  `json:"shed_server_count"`
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
		},
		Timeout: 30 * time.Second,
	}
}

// runCalibration issues read-only, cache-busting requests from a few
// closed-loop clients, populating the engine latency histograms with an
// uncontended baseline the overload budget is derived from.
func runCalibration(base string, k int, now repro.Timestamp, hot int, d time.Duration) {
	const clients = 4
	client := newClient(clients)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += clients {
				select {
				case <-stop:
					return
				default:
				}
				// A distinct "now" per request defeats the {k, now} cache
				// shape, so every request reaches the engine.
				reqNow := now - repro.Timestamp(i%4096)
				resp, err := client.Get(fmt.Sprintf("%s/recommend?user=%d&k=%d&now=%d", base, i%hot, k, reqNow))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
			}
		}(c)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
}

// runClosedLoop drives phase 1: every client waits for its response
// before issuing the next request, so concurrency — not arrival rate —
// is fixed, and throughput is what the server sustains.
func runClosedLoop(base string, test []repro.Action, readers, writers, k int, now repro.Timestamp, hot int, d time.Duration, seed uint64) closedResult {
	client := newClient(readers + writers)
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		reads    atomic.Int64
		writes   atomic.Int64
		degraded atomic.Int64
		samples  = loadgen.NewReservoir(1<<16, seed)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += writers {
				select {
				case <-stop:
					return
				default:
				}
				a := test[i%len(test)]
				body, _ := json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time})
				resp, err := client.Post(base+"/observe", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					log.Fatalf("observe: status %d", resp.StatusCode)
				}
				if resp.Header.Get("X-WAL-Degraded") != "" {
					degraded.Add(1)
				}
				writes.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			u := r * 7919
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/recommend?user=%d&k=%d&now=%d", base, u%hot, k, now))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
				samples.Observe(time.Since(t0))
				reads.Add(1)
				u += 13
			}
		}(r)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()

	qs := samples.Quantiles(0.50, 0.90, 0.99)
	secs := d.Seconds()
	return closedResult{
		DurationMs: float64(d.Milliseconds()),
		Reads:      reads.Load(),
		Writes:     writes.Load(),
		ReadQPS:    float64(reads.Load()) / secs,
		WriteQPS:   float64(writes.Load()) / secs,
		ReadP50Us:  float64(qs[0].Microseconds()),
		ReadP90Us:  float64(qs[1].Microseconds()),
		ReadP99Us:  float64(qs[2].Microseconds()),
		Samples:    samples.Len(),
		SampledOf:  samples.Seen(),
		Degraded:   degraded.Load(),
	}
}

// runOpenLoop drives phase 2: a scheduler releases one request slot
// every 1/rate seconds regardless of completions (slots that find the
// queue full are counted as overrun drops — the generator itself must
// not become closed-loop under pressure), and a worker pool issues
// them. Each request pins a slightly different "now", so the cache's
// {k, now} shape key never matches and every admitted request does
// real engine work — the storm must hit the engine, not the cache, or
// the shed controller has nothing to measure. A concurrent writer pool
// streams observes throughout: observes take the engine's write lock
// for score propagation, which is what actually inflates read latency
// under combined load (POST /observe is never shed, so the pressure
// persists while reads back off). Admitted (200) latencies go to the
// reservoir; 429s are counted.
func runOpenLoop(base string, test []repro.Action, writers, k int, now repro.Timestamp, hot int, d time.Duration, rate float64, seed uint64) *overloadResult {
	if rate < 100 {
		rate = 100
	}
	const workerPool = 64
	client := newClient(workerPool + writers)
	var (
		wg      sync.WaitGroup
		wwg     sync.WaitGroup
		sent    atomic.Int64
		ok      atomic.Int64
		shed    atomic.Int64
		dropped atomic.Int64
		samples = loadgen.NewReservoir(1<<16, seed+1)
		jobs    = make(chan int, 4*workerPool)
		stop    = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := w; ; i += writers {
				select {
				case <-stop:
					return
				default:
				}
				a := test[i%len(test)]
				body, _ := json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time})
				resp, err := client.Post(base+"/observe", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
			}
		}(w)
	}
	for w := 0; w < workerPool; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for u := range jobs {
				i++
				reqNow := now - repro.Timestamp((w*131+i*7)%1024)
				t0 := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/recommend?user=%d&k=%d&now=%d", base, u, k, reqNow))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					samples.Observe(time.Since(t0))
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					log.Fatalf("recommend: status %d", resp.StatusCode)
				}
			}
		}(w)
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval < 10*time.Microsecond {
		interval = 10 * time.Microsecond
	}
	tick := time.NewTicker(interval)
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		defer close(jobs) // the scheduler owns jobs: nobody else may send
		u := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				select {
				case jobs <- u % hot:
					sent.Add(1)
				default:
					dropped.Add(1)
				}
				u += 13
			}
		}
	}()
	time.Sleep(d)
	close(stop)
	<-schedDone
	tick.Stop()
	wg.Wait()
	wwg.Wait()

	qs := samples.Quantiles(0.50, 0.99)
	return &overloadResult{
		DurationMs:    float64(d.Milliseconds()),
		TargetQPS:     rate,
		Sent:          sent.Load(),
		OK:            ok.Load(),
		Shed429:       shed.Load(),
		Dropped:       dropped.Load(),
		AdmittedP50Us: float64(qs[0].Microseconds()),
		AdmittedP99Us: float64(qs[1].Microseconds()),
		Samples:       samples.Len(),
	}
}

type report struct {
	GeneratedAt string          `json:"generated_at"`
	GoVersion   string          `json:"go_version"`
	CPUs        int             `json:"cpus"`
	GoMaxProcs  int             `json:"gomaxprocs"`
	Users       int             `json:"users"`
	Seed        uint64          `json:"seed"`
	Shards      int             `json:"shards"`
	Readers     int             `json:"readers"`
	Writers     int             `json:"writers"`
	K           int             `json:"k"`
	CalP99Us    float64         `json:"calibration_read_p99_us"`
	ClosedLoop  closedResult    `json:"closed_loop"`
	Overload    *overloadResult `json:"overload,omitempty"`
}

func fillCacheStats(closed *closedResult, snap metrics.Snapshot) {
	closed.Cache = cacheStats{
		Hits:          snap.Counters["server/cache/hits"],
		Misses:        snap.Counters["server/cache/misses"],
		Bypass:        snap.Counters["server/cache/bypass"],
		Invalidations: snap.Counters["server/cache/invalidations"],
	}
	if total := closed.Cache.Hits + closed.Cache.Misses; total > 0 {
		closed.Cache.HitRatio = float64(closed.Cache.Hits) / float64(total)
	}
}

func buildReport(users int, seed uint64, shards, readers, writers, k int, closed closedResult, over *overloadResult) report {
	return report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Users:       users,
		Seed:        seed,
		Shards:      shards,
		Readers:     readers,
		Writers:     writers,
		K:           k,
		ClosedLoop:  closed,
		Overload:    over,
	}
}

func snapshotHists(hists []*metrics.Histogram) []metrics.HistogramSnapshot {
	out := make([]metrics.HistogramSnapshot, len(hists))
	for i, h := range hists {
		out[i] = h.Snapshot()
	}
	return out
}

// deltaP99 estimates the p99 of everything observed between two
// snapshot sets (merged across engines), mirroring the server's shed
// window arithmetic.
func deltaP99(prev, cur []metrics.HistogramSnapshot) int64 {
	byUpper := make(map[int64]uint64)
	var count uint64
	var max int64
	for i := range cur {
		count += cur[i].Count
		if cur[i].Max > max {
			max = cur[i].Max
		}
		for _, b := range cur[i].Buckets {
			byUpper[b.Upper] += b.Count
		}
		if i < len(prev) {
			count -= prev[i].Count
			for _, b := range prev[i].Buckets {
				byUpper[b.Upper] -= b.Count
			}
		}
	}
	if count == 0 {
		return 0
	}
	rank := uint64(0.99 * float64(count))
	if rank >= count {
		rank = count - 1
	}
	var seen uint64
	for j := 0; j < metrics.NumBuckets(); j++ {
		upper := metrics.BucketUpper(j)
		n := byUpper[upper]
		if n == 0 {
			continue
		}
		seen += n
		if rank < seen {
			if upper > max {
				return max
			}
			return upper
		}
	}
	return max
}
