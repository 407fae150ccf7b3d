package main

import (
	"runtime"
	"slices"
	"time"
)

// The CPU clocks leave out steal time, but not the rest of what a busy
// shared host does to a VM: neighbours on sibling hyperthreads and in
// the shared caches slow every instruction. On a 2-core VM the CPU time
// of the same workload drifted by a fifth to two fifths over tens of
// minutes with the host's load. So a calibrator times a fixed reference
// task, on a thread of its own, all through each timed window, and every
// CPU-clock metric is scaled by how much slower or faster than on the
// reference host that task ran. In busy spells the reference task
// slowed by 15-25% where write-mix's reads slowed by about 25% and
// server-sql's by 20-40%, so the scaling damps the host's drift rather
// than removing it; the unscaled figures are in the report lines as
// *_raw.

// calibRefMs is the reference task's CPU time on the reference host, a
// 2-core Intel Xeon VM, during a timed window; the CPU-clock metrics are
// reported as if measured there.
const calibRefMs = 3.25

// calibEvery is how often the calibrator runs its reference task.
const calibEvery = 100 * time.Millisecond

// calibWords sizes the reference task's buffer: 2 MiB, more than a
// core's private caches hold.
const calibWords = 1 << 18

// calibSink keeps the reference task's result alive.
var calibSink uint64

// cpuMetrics are the metrics read on a CPU clock, which scaleCPU
// rescales.
var cpuMetrics = []string{"setup_s", "cpu_ms_per_query", "query_cpu_p50_ms", "query_cpu_p95_ms",
	"agg_cpu_ms", "aggord_cpu_ms", "ord_cpu_ms", "page_cpu_ms", "process_cpu_ms_per_query"}

// Each CPU-clock metric is also reported unscaled, as <name>_raw.
func init() {
	for _, n := range cpuMetrics {
		metricTable = append(metricTable, metricDef{n + "_raw", units[n], false, false})
		units[n+"_raw"] = units[n]
	}
}

// calibTask is the reference task: it fills a buffer from a xorshift
// generator, reads it at random and sorts part of it, the mix of
// streaming, cache-missing and branchy work the queries do. It returns
// the CPU time it ran.
func calibTask(buf []uint64) time.Duration {
	c0 := threadCPU()
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	var sum uint64
	for i := 0; i < len(buf)/4; i++ {
		sum += buf[buf[i]%uint64(len(buf))]
	}
	slices.Sort(buf[:len(buf)/16])
	calibSink += sum
	return threadCPU() - c0
}

// calibrator runs calibTask on an OS thread of its own every calibEvery
// until stopped.
type calibrator struct {
	stop chan struct{}
	done chan []float64
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]uint64, calibWords)
		var ms []float64
		t := time.NewTicker(calibEvery)
		defer t.Stop()
		for {
			ms = append(ms, float64(calibTask(buf))/1e6)
			select {
			case <-c.stop:
				c.done <- ms
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// end stops the calibrator and returns the CPU time of each run of the
// reference task, in ms.
func (c *calibrator) end() []float64 {
	close(c.stop)
	return <-c.done
}

// scaleCPU rescales the CPU-clock metrics to the reference host's speed
// by calibRefMs over the reference task's median time, keeping the
// unscaled values as <name>_raw, and records the median and the factor.
func (r *report) scaleCPU(calib []float64) {
	if len(calib) == 0 {
		return
	}
	ms := median(calib)
	f := calibRefMs / ms
	for _, n := range cpuMetrics {
		if m, ok := r.Metrics[n]; ok {
			r.set(n+"_raw", m.Value)
			r.set(n, m.Value*f)
		}
	}
	r.set("host_calib_ms", ms)
	r.set("host_cpu_scale", f)
}
