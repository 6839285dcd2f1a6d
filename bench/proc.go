package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/xrand"
)

// procSnap is a point-in-time reading of the calling process: CPU spent,
// peak resident set, and the Go runtime's allocation and GC counters. The
// SUT takes it of itself, so on HTTP workloads it never includes the load
// generator.
type procSnap struct {
	CPUUS     int64  `json:"cpu_us"`    // user+sys
	VmHWMKB   int64  `json:"vm_hwm_kb"` // peak RSS
	GCPauseNS uint64 `json:"gc_pause_ns"`
	NumGC     uint32 `json:"num_gc"`
	Mallocs   uint64 `json:"mallocs"`
	HeapAlloc uint64 `json:"heap_alloc"`
}

func readProcSnap() procSnap {
	var s procSnap
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.CPUUS = ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec
	}
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					s.VmHWMKB, _ = strconv.ParseInt(fields[0], 10, 64)
				}
			}
		}
		f.Close()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.GCPauseNS, s.NumGC, s.Mallocs, s.HeapAlloc = ms.PauseTotalNs, ms.NumGC, ms.Mallocs, ms.HeapAlloc
	return s
}

// procMetrics fills the process-level metrics from a window's two
// readings of the SUT.
func procMetrics(v map[string]float64, before, after procSnap, okOps int) {
	v["sut_cpu_us_per_op"] = ratio(float64(after.CPUUS-before.CPUUS), float64(okOps))
	v["sut_rss_peak_mb"] = float64(after.VmHWMKB) / 1024
	v["proc.gc_pause_ms_total"] = float64(after.GCPauseNS-before.GCPauseNS) / 1e6
	v["proc.gc_cycles"] = float64(after.NumGC - before.NumGC)
	v["proc.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), float64(okOps))
	v["proc.heap_mb_end"] = float64(after.HeapAlloc) / (1 << 20)
}

// memProbeMS reports how fast this box's memory answers right now: the
// time, in milliseconds, for one million dependent loads that walk a
// 16 MiB table in a fixed random order (one cycle through every entry, so
// neither cache nor prefetcher helps). The node's work is of this kind —
// maps and adjacency lists — and on a shared host the figure moves by 2x
// and more within minutes while arithmetic speed holds (README.md,
// "Steadiness"). The env line records it, taken right after the window, so
// that a metric that moved can be set against the box that moved under it.
func memProbeMS() float64 {
	const n = 1 << 22
	order := xrand.New(1).Perm(n)
	next := make([]uint32, n)
	for i, at := range order {
		next[at] = uint32(order[(i+1)%n])
	}
	start := time.Now()
	at := uint32(0)
	for i := 0; i < 1_000_000; i++ {
		at = next[at]
	}
	d := time.Since(start)
	if at == uint32(n) { // never: keeps the walk from being optimized away
		return 0
	}
	return d.Seconds() * 1e3
}
