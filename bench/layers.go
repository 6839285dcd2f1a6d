package main

import (
	"repro/internal/metrics"
)

// snapMetrics fills the "snap" per-layer metrics from d, the diff of the
// node's public metrics snapshot (Engine.Metrics or GET /metrics) across
// the measured window. Series a workload never touches read 0.
func snapMetrics(v map[string]float64, d metrics.Snapshot) {
	c := func(name string) float64 { return float64(d.Counters[name]) }
	g := func(name string) float64 { return float64(d.Gauges[name]) }

	hits, misses := c("server/cache/hits"), c("server/cache/misses")
	v["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["server.cache_invalidations_per_write"] = ratio(c("server/cache/invalidations"), c("server/http/observes"))
	v["server.cache_bypass_frac"] = ratio(c("server/cache/bypass"), c("server/http/recommends"))
	v["server.cache_stale_fills"] = c("server/cache/stale_fills")
	v["server.batch_mean_size"] = d.Histograms["server/batch/size"].Mean()
	v["server.batch_flushes"] = c("server/batch/flushes")
	shed := c("server/shed/shed") + c("server/shed/queue_shed")
	v["server.shed_frac"] = ratio(shed, shed+c("server/shed/admitted"))
	v["server.queue_shed"] = c("server/shed/queue_shed")
	v["server.bad_requests"] = c("server/http/bad_requests")

	v["engine.cold_start_frac"] = ratio(c("engine/recommend/cold_start_fallbacks"), c("engine/recommend/requests"))
	v["engine.observed_log_len_end"] = g("engine/observed_log/len")

	batch, fallback := c("similarity/simbatch/batch_calls"), c("similarity/simbatch/pairwise_fallbacks")
	v["similarity.simbatch_calls"] = batch
	v["similarity.pairwise_fallback_frac"] = ratio(fallback, batch+fallback)

	v["simgraph.states_end"] = g("rec/states")
	v["simgraph.evictions"] = c("rec/evictions")

	actions, props := c("engine/observe/actions"), c("rec/propagations")
	v["propagation.propagations_per_action"] = ratio(props, actions)
	v["propagation.recomputations_per_propagation"] = ratio(c("rec/recomputations"), props)
	v["propagation.rounds_per_propagation"] = ratio(c("rec/rounds"), props)
	v["propagation.frontier_width_p99"] = float64(d.Histograms["rec/frontier_width"].Quantile(0.99))

	records := c("wal/append/records")
	v["durable.wal_bytes_per_action"] = ratio(c("wal/append/bytes"), records)
	v["durable.fsyncs_per_kaction"] = ratio(1000*c("wal/fsync/count"), records)
	v["durable.fsync_us_p95"] = float64(d.Histograms["wal/fsync/latency_ns"].Quantile(0.95)) / 1e3
	v["durable.degraded_appends"] = c("engine/wal/degraded_appends")
}

// latencyMetrics fills the client-side latency metrics from the window's
// successful read and write latencies (nanoseconds) and returns how many
// met the latency limit. Only the medians are gated: the p95s are printed
// (main.go, reportedOnly) and carried as loadgen.*_p95_us, p99 and max are
// loadgen.* only, and the tail's gated measure is the share that met the
// limit.
func latencyMetrics(v map[string]float64, reads, writes []int64, limitNS int64) (met int) {
	for _, s := range [][]int64{reads, writes} {
		for _, l := range s {
			if l <= limitNS {
				met++
			}
		}
	}
	r, w := summarize(reads), summarize(writes)
	v["read_p50_us"], v["write_p50_us"] = float64(r.P50)/1e3, float64(w.P50)/1e3
	v["read_p95_us"], v["write_p95_us"] = float64(r.P95)/1e3, float64(w.P95)/1e3
	v["loadgen.read_p95_us"], v["loadgen.write_p95_us"] = v["read_p95_us"], v["write_p95_us"]
	v["loadgen.read_samples"], v["loadgen.write_samples"] = float64(r.N), float64(w.N)
	v["loadgen.read_p99_us"], v["loadgen.write_p99_us"] = float64(r.P99)/1e3, float64(w.P99)/1e3
	v["loadgen.read_max_us"], v["loadgen.write_max_us"] = float64(r.Max)/1e3, float64(w.Max)/1e3
	return met
}

// setupMetrics fills the set-up metrics — medians over the run's set-up
// repetitions, and the last repetition's recovery counts — and records
// the outcome of the measured node's restart check.
func setupMetrics(res *result, setups []float64, nodes []nodeSetup, genS, saveLoadS []float64) {
	v := res.values
	var init, rec []float64
	for _, n := range nodes {
		init = append(init, n.InitS)
		rec = append(rec, n.RecoveryS)
	}
	v["setup_s"] = median(setups)
	v["init_s"] = median(init)
	v["recovery_s"] = median(rec)
	v["dataset.gen_s"] = median(genS)
	v["dataset.save_load_s"] = median(saveLoadS)
	last := nodes[len(nodes)-1]
	v["durable.recovery_wal_records"] = float64(last.RecoveryWALRecords)
	v["durable.recovery_checkpoint_actions"] = float64(last.RecoveryCheckpointActions)
	res.attempted += checkUsers
	if !last.RecoveredIdentical {
		res.correct = false
		res.failed += checkUsers
		res.notes = append(res.notes, "check: recovered engine differs from the live engine it replaced")
	}
}
