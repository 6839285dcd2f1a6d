package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// openLoopConns is how many senders (one keep-alive connection each)
// take an open loop's arrivals. Arrivals are independent users: a stalled
// reply must not hold back the requests due after it, so there are far
// more senders than the offered load keeps busy, and a generator that
// still runs late (loadgen.sched_lag_p95_us) is short of CPU, not of
// connections. Closed loops use numClients callers instead.
const openLoopConns = 32

// traceSlice is how long requests share a tracing mode on a traced HTTP
// run: slices alternate traced/untraced, so both modes see the same load
// and state and their latencies (open loop) or rates (closed loop) compare.
// The length does not divide serve_refresh_bg's one-second background
// period, so neither mode keeps landing on the refresh's build phase.
const traceSlice = 230 * time.Millisecond

// sutProc is the parent's handle on the child process.
type sutProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once Wait returned
	ready  sutReady
	dir    string
	client *http.Client // control-plane client
}

// startSUT spawns this binary as "sut" and waits for its ready line.
func startSUT(cfg runConfig, dsPath, dir string) (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "sut", "-dataset", dsPath, "-dir", dir,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-trace="+strconv.FormatBool(cfg.trace))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &sutProc{cmd: cmd, stdin: stdin, exited: make(chan struct{}), dir: dir, client: &http.Client{Timeout: 30 * time.Second}}
	line, readErr := bufio.NewReader(stdout).ReadBytes('\n')
	go func() {
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(p.exited)
	}()
	if readErr != nil {
		p.kill()
		return nil, fmt.Errorf("child exited before it was ready: %v", readErr)
	}
	if err := json.Unmarshal(line, &p.ready); err != nil {
		p.kill()
		return nil, fmt.Errorf("child ready line %q: %v", line, err)
	}
	p.base = "http://" + p.ready.Addr
	return p, nil
}

func (p *sutProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// kill stops the child without ceremony and waits until it has ended.
func (p *sutProc) kill() {
	p.stdin.Close()
	if p.alive() {
		p.cmd.Process.Kill()
	}
	<-p.exited
}

// stop asks the child to write its spans and exit, and waits for it.
func (p *sutProc) stop() error {
	resp, err := p.client.Post(p.base+"/bench/stop", "", nil)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			err = fmt.Errorf("child stop: status %d", resp.StatusCode)
		}
	}
	p.stdin.Close()
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.kill()
		if err == nil {
			err = fmt.Errorf("child did not exit after stop")
		}
	}
	return err
}

// getJSON fetches path from the child and decodes the body into out.
func (p *sutProc) getJSON(path string, out any) error {
	req, _ := http.NewRequest(http.MethodGet, p.base+path, nil) // constant method, parsed base: cannot fail
	req.Header.Set("Accept", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (p *sutProc) bg(periodMS int) error {
	resp, err := p.client.Post(p.base+"/bench/bg?period_ms="+strconv.Itoa(periodMS), "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("child bg: status %d", resp.StatusCode)
	}
	return nil
}

// clientStats is what one load-generator goroutine recorded.
type clientStats struct {
	reads, writes []int64 // successful latencies, ns
	lags          []int64 // open loop: how long after its due time a sender took each arrival, ns
	sent, failed  int
	readsSent     int // paces the output check
	checkErrs     []string
	spans         []span
	// Per tracing mode [untraced, traced], for trace.overhead_frac.
	modeReads [2][]int64
	modeOps   [2]int
}

// loadgen is the shared state of one measured window.
type loadgen struct {
	cfg     runConfig
	base    string
	ds      *repro.Dataset
	stream  []repro.Action // test actions after the preload, in order
	maxAge  repro.Timestamp
	start   time.Time
	window  time.Duration
	lastNow atomic.Int64 // stream clock of the last write sent
	wnext   atomic.Int64 // closed loop: next stream index
	rseq    atomic.Int64 // traced read sequence
	dry     atomic.Bool  // the stream ran out inside the window

	sharedMu sync.Mutex
	shared   sharedSet
}

// readNow is the `now` of a read: the stream clock of the last write
// sent, rounded up to the next simulated hour, so cache keys churn hourly
// rather than per write.
func (lg *loadgen) readNow() repro.Timestamp {
	t := lg.lastNow.Load()
	return repro.Timestamp((t + int64(repro.Hour) - 1) / int64(repro.Hour) * int64(repro.Hour))
}

func (lg *loadgen) noteSent(t repro.Timestamp) {
	for {
		cur := lg.lastNow.Load()
		if int64(t) <= cur || lg.lastNow.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// traced reports whether a request issued at offset at is in a traced slice.
func (lg *loadgen) traced(at time.Duration) bool {
	return lg.cfg.trace && (at/traceSlice)%2 == 0
}

// doRead sends one GET /recommend, timing it from ref: the due time on
// open loops, the moment the client turned to it on closed ones.
func (lg *loadgen) doRead(hc *http.Client, st *clientStats, u repro.UserID, ref time.Time) {
	now := lg.readNow()
	url := lg.base + "/recommend?user=" + strconv.FormatUint(uint64(u), 10) + "&k=" + strconv.Itoa(recK) + "&now=" + strconv.FormatInt(int64(now), 10)
	req, _ := http.NewRequest(http.MethodGet, url, nil) // constant method, well-formed URL: cannot fail
	sendAt := time.Now()
	traced := lg.traced(sendAt.Sub(lg.start))
	var id string
	if traced {
		id = "r" + strconv.FormatInt(lg.rseq.Add(1), 10)
		req.Header.Set(reqHeader, id)
	}
	st.sent++
	st.readsSent++
	validate := st.readsSent%validateEvery == 0
	resp, err := hc.Do(req)
	var body recommendBody
	if err == nil {
		if validate {
			err = json.NewDecoder(resp.Body).Decode(&body)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	done := time.Now()
	if err != nil {
		st.failed++
		return
	}
	lat := int64(done.Sub(ref))
	st.reads = append(st.reads, lat)
	mode := 0
	if traced {
		mode = 1
		st.spans = append(st.spans, span{Name: "client.read", Req: id, Start: sendAt.UnixNano(), End: sendAt.UnixNano() + int64(done.Sub(sendAt))})
	}
	if lg.cfg.trace {
		st.modeReads[mode] = append(st.modeReads[mode], lat)
		st.modeOps[mode]++
	}
	if validate {
		recs := make([]repro.Recommendation, len(body.Recommendations))
		for i, r := range body.Recommendations {
			recs[i] = repro.Recommendation{Tweet: r.Tweet, Score: r.Score}
		}
		lg.sharedMu.Lock()
		sentNS := sendAt.UnixNano()
		err := checkRecs(lg.ds, func(u repro.UserID, t repro.TweetID) bool { return lg.shared.hadBy(u, t, sentNS) }, u, now, lg.maxAge, recs)
		lg.sharedMu.Unlock()
		if err != nil {
			st.checkErrs = append(st.checkErrs, err.Error())
		}
	}
}

// doWrite sends one POST /observe.
func (lg *loadgen) doWrite(hc *http.Client, st *clientStats, a repro.Action, ref time.Time) {
	body := make([]byte, 0, 64)
	body = append(body, `{"user":`...)
	body = strconv.AppendUint(body, uint64(a.User), 10)
	body = append(body, `,"tweet":`...)
	body = strconv.AppendUint(body, uint64(a.Tweet), 10)
	body = append(body, `,"time":`...)
	body = strconv.AppendInt(body, int64(a.Time), 10)
	body = append(body, '}')
	req, _ := http.NewRequest(http.MethodPost, lg.base+"/observe", bytes.NewReader(body)) // as in doRead
	req.Header.Set("Content-Type", "application/json")
	sendAt := time.Now()
	traced := lg.traced(sendAt.Sub(lg.start))
	var id string
	if traced {
		id = "w" + strconv.FormatUint(actionKey(a.User, a.Tweet), 10)
		req.Header.Set(reqHeader, id)
	}
	st.sent++
	lg.noteSent(a.Time)
	resp, err := hc.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	done := time.Now()
	if err != nil {
		st.failed++
		return
	}
	// Reads sent from now on are held to "not already shared": the write
	// is acknowledged, so every later response must respect it.
	lg.sharedMu.Lock()
	lg.shared[actionKey(a.User, a.Tweet)] = done.UnixNano()
	lg.sharedMu.Unlock()
	st.writes = append(st.writes, int64(done.Sub(ref)))
	if traced {
		st.spans = append(st.spans, span{Name: "client.write", Req: id, Start: sendAt.UnixNano(), End: sendAt.UnixNano() + int64(done.Sub(sendAt))})
	}
	if lg.cfg.trace {
		mode := 0
		if traced {
			mode = 1
		}
		st.modeOps[mode]++
	}
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

// pace is the open loop's clock: it sends each arrival's index on out at
// its due time (start+dues[i]), never before, in order, and closes out
// after the last. It never waits for the node, so a stall leaves arrivals
// queued in out with their due times behind them. Go's own timers are no
// use here: an idle runtime sleeps in epoll_wait, whose timeout is whole
// milliseconds, so time.Sleep overshoots by up to 1 ms — three times a
// read's median. pace sleeps in nanosleep(2) on a thread of its own with
// the kernel's timer slack turned down from 50 µs to 1 ns instead. The
// thread stays locked, so the runtime discards it with the goroutine.
func pace(start time.Time, dues []time.Duration, out chan<- int) {
	runtime.LockOSThread()
	const prSetTimerslack = 29                                   // PR_SET_TIMERSLACK, <linux/prctl.h>
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: a refusal only costs precision
	for i, d := range dues {
		// A signal may end nanosleep early: sleep again until due has passed.
		for wait := time.Until(start.Add(d)); wait > 0; wait = time.Until(start.Add(d)) {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		out <- i
	}
	close(out)
}

// runOpen drives the open loop: the seeded Poisson schedule is fixed
// before the window, pace releases each arrival when it is due, whichever
// sender is free takes it, and every latency runs from the due time — a
// stall is charged to each request that came due behind it, and so is the
// generator's own lateness, reported as loadgen.sched_lag_p95_us.
func (lg *loadgen) runOpen(rng *xrand.RNG, users *readUsers) []*clientStats {
	sched := poissonSchedule(rng.Fork(), lg.cfg.wl.readRate, lg.cfg.wl.writeRate, lg.window)
	type planned struct {
		arrival
		user   repro.UserID // reads
		action int          // writes: index into stream
	}
	plan := make([]planned, len(sched))
	nw := 0
	for i, a := range sched {
		plan[i].arrival = a
		if a.Write {
			if nw >= len(lg.stream) {
				lg.dry.Store(true)
				plan = plan[:i]
				break
			}
			plan[i].action = nw
			nw++
		} else {
			plan[i].user = users.next()
		}
	}
	dues := make([]time.Duration, len(plan))
	for i, p := range plan {
		dues[i] = p.Due
	}
	released := make(chan int, len(plan)) // pace must never block on a busy node
	stats := make([]*clientStats, openLoopConns)
	var wg sync.WaitGroup
	lg.start = time.Now()
	go pace(lg.start, dues, released)
	for c := range stats {
		st := &clientStats{}
		stats[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for i := range released {
				p := plan[i]
				due := lg.start.Add(p.Due)
				st.lags = append(st.lags, int64(time.Since(due)))
				if p.Write {
					lg.doWrite(hc, st, lg.stream[p.action], due)
				} else {
					lg.doRead(hc, st, p.user, due)
				}
			}
		}()
	}
	wg.Wait()
	return stats
}

// runClosed drives the closed loop: each client flips a seeded 50/50
// coin, sends, and waits for the reply before its next request.
func (lg *loadgen) runClosed(rng *xrand.RNG, perm []int) []*clientStats {
	stats := make([]*clientStats, numClients())
	rngs := make([]*xrand.RNG, len(stats))
	for c := range rngs {
		rngs[c] = rng.Fork()
	}
	var wg sync.WaitGroup
	lg.start = time.Now()
	deadline := lg.start.Add(lg.window)
	for c := range stats {
		st, crng := &clientStats{}, rngs[c]
		stats[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			users := newReadUsers(perm, crng.Fork())
			for time.Now().Before(deadline) {
				if crng.Bool(0.5) {
					i := int(lg.wnext.Add(1)) - 1
					if i >= len(lg.stream) {
						lg.dry.Store(true)
						return
					}
					lg.doWrite(hc, st, lg.stream[i], time.Now())
				} else {
					lg.doRead(hc, st, users.next(), time.Now())
				}
			}
		}()
	}
	wg.Wait()
	return stats
}

// runServe runs one HTTP workload: set the node up setupReps times (each
// a fresh child process), measure the window against the last, check
// outputs at quiescence, and assemble the metrics.
func runServe(cfg runConfig, childOut *atomic.Pointer[sutProc]) (*result, error) {
	res := &result{correct: true, values: map[string]float64{}}
	v := res.values

	var (
		child                   *sutProc
		ds                      *repro.Dataset
		setups, genS, saveLoadS []float64
		nodes                   []nodeSetup
	)
	for rep := 0; rep < setupReps; rep++ {
		if child != nil {
			if err := child.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(child.dir)
			ds = nil
		}
		start := time.Now()
		var err error
		if ds, err = generate(); err != nil {
			return nil, err
		}
		genS = append(genS, time.Since(start).Seconds())
		dsPath := filepath.Join(cfg.workDir, "dataset.bin")
		saveStart := time.Now()
		if err := ds.SaveFile(dsPath); err != nil {
			return nil, err
		}
		saveS := time.Since(saveStart).Seconds()
		if child, err = startSUT(cfg, dsPath, filepath.Join(cfg.workDir, "node-"+strconv.Itoa(rep))); err != nil {
			return nil, err
		}
		childOut.Store(child)
		setups = append(setups, time.Since(start).Seconds())
		saveLoadS = append(saveLoadS, saveS+child.ready.LoadS)
		nodes = append(nodes, child.ready.Node)
	}
	setupMetrics(res, setups, nodes, genS, saveLoadS)

	_, test, err := repro.SplitDataset(ds, trainFrac)
	if err != nil {
		return nil, err
	}
	lg := &loadgen{
		cfg:    cfg,
		base:   child.base,
		ds:     ds,
		stream: test[preloadActions:],
		maxAge: repro.DefaultEngineOptions().MaxAge,
		window: time.Duration(cfg.seconds) * time.Second,
		shared: sharedSet{},
	}
	lg.shared.add(test[:preloadActions])
	lg.lastNow.Store(int64(test[preloadActions-1].Time))
	rng := xrand.New(cfg.seed)
	perm := hotOrder(ds.NumUsers())

	var snapBefore, snapAfter sutReport
	var mBefore, mAfter metrics.Snapshot
	if err := child.getJSON("/bench/snap", &snapBefore); err != nil {
		return nil, err
	}
	if err := child.getJSON("/metrics", &mBefore); err != nil {
		return nil, err
	}
	if cfg.wl.bg {
		if err := child.bg(cfg.seconds * 1000 / bgPeriods); err != nil {
			return nil, err
		}
	}
	var stats []*clientStats
	if cfg.wl.closed {
		stats = lg.runClosed(rng, perm)
	} else {
		stats = lg.runOpen(rng, newReadUsers(perm, rng.Fork()))
	}
	elapsed := time.Since(lg.start)
	if cfg.wl.bg {
		if err := child.bg(0); err != nil {
			return nil, err
		}
	}
	if !child.alive() {
		return nil, fmt.Errorf("%w: the child died during the window", errInvalid)
	}
	if err := child.getJSON("/bench/snap", &snapAfter); err != nil {
		return nil, err
	}
	if err := child.getJSON("/metrics", &mAfter); err != nil {
		return nil, err
	}

	mismatches, err := quiescenceCheck(child, lg.readNow(), xrand.New(cfg.seed).Sample(ds.NumUsers(), checkUsers))
	if err != nil {
		return nil, err
	}
	res.attempted += checkUsers
	if mismatches > 0 {
		res.correct = false
		res.failed += mismatches
		res.notes = append(res.notes, fmt.Sprintf("check: %d of %d users got a different list over HTTP than from the engine at quiescence", mismatches, checkUsers))
	}
	if err := child.stop(); err != nil {
		return nil, err
	}

	var reads, writes, lags []int64
	var modeReads [2][]int64
	var modeOps [2]int
	var spans []span
	sent, failed := 0, 0
	for _, st := range stats {
		reads, writes, lags = append(reads, st.reads...), append(writes, st.writes...), append(lags, st.lags...)
		sent, failed = sent+st.sent, failed+st.failed
		spans = append(spans, st.spans...)
		for m := range modeOps {
			modeReads[m] = append(modeReads[m], st.modeReads[m]...)
			modeOps[m] += st.modeOps[m]
		}
		for _, e := range st.checkErrs {
			res.correct = false
			res.failed++
			res.notes = append(res.notes, "check: "+e)
		}
	}
	res.attempted += sent
	res.failed += failed
	lag := summarize(lags)
	v["loadgen.sched_lag_p95_us"] = float64(lag.P95) / 1e3
	if !cfg.wl.closed {
		res.notes = append(res.notes, fmt.Sprintf("loadgen: sched_lag_p50_us=%.0f sched_lag_p95_us=%.0f (invalid above %d)", float64(lag.P50)/1e3, float64(lag.P95)/1e3, maxSchedLagUS))
	}
	v["loadgen.sent"], v["loadgen.ok"], v["loadgen.failed"] = float64(sent), float64(sent-failed), float64(failed)
	v["ops_per_s"] = float64(sent-failed) / elapsed.Seconds()
	v["slo_met_frac"] = ratio(float64(latencyMetrics(v, reads, writes, int64(cfg.wl.sloLimit))), float64(sent))
	procMetrics(v, snapBefore.Proc, snapAfter.Proc, sent-failed)
	diff := diffSnapshot(mBefore, mAfter)
	snapMetrics(v, diff)
	v["simgraph.edges"] = float64(child.ready.Edges)
	bgMetrics(v, snapAfter)

	switch {
	case lg.dry.Load():
		return nil, fmt.Errorf("%w: the test stream ran out inside the window (%d stream actions)", errInvalid, len(lg.stream))
	case !cfg.wl.closed && v["loadgen.sched_lag_p95_us"] > maxSchedLagUS:
		return nil, fmt.Errorf("%w: loadgen.sched_lag_p95_us = %.0f > %d, the generator could not hold its schedule", errInvalid, v["loadgen.sched_lag_p95_us"], maxSchedLagUS)
	case diff.Counters["engine/wal/degraded_appends"] > 0:
		return nil, fmt.Errorf("%w: %d degraded WAL appends", errInvalid, diff.Counters["engine/wal/degraded_appends"])
	case snapAfter.BgErr != "":
		return nil, fmt.Errorf("%w: background checkpoint failed: %s", errInvalid, snapAfter.BgErr)
	}

	if cfg.trace {
		childSpans, err := readSpans(filepath.Join(child.dir, "spans.jsonl"))
		if err != nil {
			return nil, err
		}
		spans = append(spans, childSpans...)
		spanMetrics(v, spans)
		if cfg.wl.closed {
			// Slices are equally long, so ops per mode compare as rates.
			v["trace.overhead_frac"] = ratio(float64(modeOps[0]-modeOps[1]), float64(modeOps[0]))
		} else {
			un, tr := summarize(modeReads[0]), summarize(modeReads[1])
			v["trace.overhead_frac"] = ratio(float64(tr.P50-un.P50), float64(un.P50))
		}
		if err := saveTrace(cfg, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// quiescenceCheck compares, with no traffic in flight, GET /recommend
// (which may answer from the cache) against the engine's direct answer
// for each user, and returns how many lists differ.
func quiescenceCheck(child *sutProc, now repro.Timestamp, users []int) (int, error) {
	mismatches := 0
	for _, u := range users {
		q := "user=" + strconv.Itoa(u) + "&k=" + strconv.Itoa(recK) + "&now=" + strconv.FormatInt(int64(now), 10)
		var served, direct recommendBody
		if err := child.getJSON("/recommend?"+q, &served); err != nil {
			return 0, err
		}
		if err := child.getJSON("/bench/direct?"+q, &direct); err != nil {
			return 0, err
		}
		same := served.Cold == direct.Cold && len(served.Recommendations) == len(direct.Recommendations)
		for i := 0; same && i < len(served.Recommendations); i++ {
			same = served.Recommendations[i] == direct.Recommendations[i]
		}
		if !same {
			mismatches++
		}
	}
	return mismatches, nil
}

// bgMetrics fills the refresh and checkpoint metrics from what the
// child's background loop recorded (all zero when it never ran).
func bgMetrics(v map[string]float64, rep sutReport) {
	n := float64(len(rep.Refreshes))
	v["engine.refresh_count"] = n
	for _, r := range rep.Refreshes {
		v["engine.refresh_build_ms_mean"] += r.BuildTime.Seconds() * 1e3 / n
		v["engine.refresh_dirty_users_mean"] += float64(r.DirtyUsers) / n
		v["engine.refresh_replayed_mean"] += float64(r.Replayed) / n
		v["engine.refresh_write_stall_ms_max"] = max(v["engine.refresh_write_stall_ms_max"], r.WriteStall.Seconds()*1e3)
		v["engine.refresh_lock_hold_us_max"] = max(v["engine.refresh_lock_hold_us_max"], r.LockHold.Seconds()*1e6)
	}
	n = float64(len(rep.Checkpoints))
	v["durable.checkpoints"] = n
	for _, c := range rep.Checkpoints {
		v["durable.checkpoint_ms_mean"] += c.Duration.Seconds() * 1e3 / n
		v["durable.checkpoint_bytes"] = float64(c.Bytes)
		v["durable.checkpoint_capture_hold_us_max"] = max(v["durable.checkpoint_capture_hold_us_max"], c.CaptureHold.Seconds()*1e6)
	}
}

// spanMetrics fills the span-derived per-layer metrics of an HTTP run.
func spanMetrics(v map[string]float64, spans []span) {
	agg := selfTimes(spans)
	v["http.read_overhead_us_mean"] = agg["client.read"].selfMeanUS()
	v["http.write_overhead_us_mean"] = agg["client.write"].selfMeanUS()
	v["server.recommend_self_us_mean"] = agg["handler.recommend"].selfMeanUS()
	v["server.observe_self_us_mean"] = agg["handler.observe"].selfMeanUS()
	var rec, obs []int64
	for _, s := range spans {
		switch s.Name {
		case "backend.recommend":
			rec = append(rec, s.End-s.Start)
		case "backend.observe_batch":
			obs = append(obs, s.End-s.Start)
		}
	}
	r, o := summarize(rec), summarize(obs)
	v["engine.recommend_us_p50"], v["engine.recommend_us_p95"] = float64(r.P50)/1e3, float64(r.P95)/1e3
	v["engine.observe_batch_us_p50"], v["engine.observe_batch_us_p95"] = float64(o.P50)/1e3, float64(o.P95)/1e3
}
