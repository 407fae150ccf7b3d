package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sample is one completed operation as the client saw it.
type sample struct {
	group  string // statement id; for pages, the ordering paged through
	family string
	ms     float64 // wall-clock latency
	cpu    float64 // on-CPU ms: the querying thread's, or the server handler's
	ok     bool
	traced bool
}

// recorder collects samples from concurrent clients.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

func (r *recorder) all() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sample(nil), r.samples...)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies returns the latencies of the successful samples whose family
// passes keep.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.ok && keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

// heapBytes reads the bytes of live and not yet swept heap objects
// without stopping the world.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes reads the cumulative bytes allocated on the heap.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples heapBytes every few milliseconds until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan heapPeaks
}

// heapPeaks is what a heapPeak saw: the 99th percentile of its
// readings, the level the heap exceeded for 1% of the window, and the
// highest reading. The highest reading depends on where the collector's
// cycles fall against the program's short-lived peaks: over sets of six
// to ten runs of write-mix on a 2-core VM its quartiles lay 7-31% of the
// median apart, those of the 99th percentile 6-7% (server-sql: at most
// 2.4% and 0.9%).
type heapPeaks struct{ p99, max uint64 }

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan heapPeaks, 1)}
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var xs []float64
		var top uint64
		note := func() {
			b := heapBytes()
			xs = append(xs, float64(b))
			top = max(top, b)
		}
		note()
		for {
			select {
			case <-h.stop:
				note()
				h.done <- heapPeaks{p99: uint64(quantile(xs, 0.99)), max: top}
				return
			case <-t.C:
				note()
			}
		}
	}()
	return h
}

// end stops the sampler and returns what it saw.
func (h *heapPeak) end() heapPeaks {
	close(h.stop)
	return <-h.done
}

// setHeap sets the heap metrics of a window.
func setHeap(rep *report, h heapPeaks) {
	rep.set("heap_peak_mb", float64(h.p99)/(1<<20))
	rep.set("heap_max_mb", float64(h.max)/(1<<20))
}

// retainedHeap collects and returns the heap still reachable: what the
// program holds between operations (views, catalogue, plan cache),
// whatever the collector's pacing. It collects twice, because what sits
// in a sync.Pool survives one collection; pooled scratch is the
// program's to drop, not state it holds. The peak figures follow the
// pacing: how much is allocated while a cycle marks, which on write-mix
// moved heap_peak_mb by up to a fifth between runs as the host's load
// changed how fast the collector ran.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return liveAfterGC()
}

// setReadMetrics sets the end-to-end read metrics from the untraced
// samples of one window: throughput, the median and 95th percentile of
// all reads and the median of each family on the wall clock; the mean,
// median and 95th percentile of all reads and the figure of each family
// on the CPU clock. A family's wall-clock median is taken over its
// statements' medians, each statement weighing the same (pages count by
// the ordering they page through), so it does not jump between a
// family's fast and slow statements as the random mix of draws shifts.
// Its CPU figure is the geometric mean of those medians, as TPC-H's
// power metric combines its queries: every statement moves it by its
// own relative change, and the noise of one statement is damped by the
// others rather than taken whole.
func setReadMetrics(rep *report, ss []sample, w window, fams []string) {
	_, secs := w.split()
	var wall, cpu []float64
	for _, s := range ss {
		if s.ok && !s.traced {
			wall = append(wall, s.ms)
			cpu = append(cpu, s.cpu)
		}
	}
	rep.set("qps", float64(len(wall))/secs)
	rep.set("query_p50_ms", median(wall))
	rep.set("query_p95_ms", quantile(wall, 0.95))
	rep.set("cpu_ms_per_query", mean(cpu))
	rep.set("query_cpu_p50_ms", median(cpu))
	rep.set("query_cpu_p95_ms", quantile(cpu, 0.95))
	for _, f := range fams {
		wall, cpu := map[string][]float64{}, map[string][]float64{}
		for _, s := range ss {
			if s.ok && !s.traced && s.family == f {
				wall[s.group] = append(wall[s.group], s.ms)
				cpu[s.group] = append(cpu[s.group], s.cpu)
			}
		}
		if len(wall) == 0 {
			rep.na(f+"_p50_ms", "invalid: no successful "+f+" query in the window")
			rep.na(f+"_cpu_ms", "invalid: no successful "+f+" query in the window")
			continue
		}
		var meds, logs []float64
		for g := range wall {
			meds = append(meds, median(wall[g]))
			logs = append(logs, math.Log(median(cpu[g])))
		}
		rep.set(f+"_p50_ms", median(meds))
		rep.set(f+"_cpu_ms", math.Exp(mean(logs)))
	}
}

// cpuWindow reads the process CPU clock and the collector's cycle count
// over a timed window, and runs the calibrator through it.
type cpuWindow struct {
	cpu time.Duration
	gcs uint64
	cal *calibrator
}

func startCPU() *cpuWindow {
	return &cpuWindow{cpu: processCPU(), gcs: gcCycles(), cal: startCalibrator()}
}

// end closes the window. It sets process_cpu_ms_per_query, the CPU time
// the whole process (clients, server, collector) ran in the window, less
// the calibrator's, per read completed, records how many collections
// the window saw, and keeps the calibration for scaleCPU.
func (c *cpuWindow) end(rep *report, reads int) {
	cal := c.cal.end()
	busy := processCPU() - c.cpu - time.Duration(sum(cal)*1e6)
	rep.set("process_cpu_ms_per_query", float64(busy)/1e6/float64(reads))
	rep.Env["window_gc_cycles"] = fmt.Sprint(gcCycles() - c.gcs)
	rep.calib = cal
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setupTimes collects the set-up rounds of a run on both clocks.
type setupTimes struct{ wall, cpu []float64 }

// time runs one set-up round, after a collection so that every round
// starts from the same heap.
func (t *setupTimes) time(round func() error) error {
	runtime.GC()
	w, c := time.Now(), processCPU()
	if err := round(); err != nil {
		return err
	}
	t.cpu = append(t.cpu, (processCPU() - c).Seconds())
	t.wall = append(t.wall, time.Since(w).Seconds())
	return nil
}

// set reports the median round: setup_s on the process CPU clock,
// setup_wall_s on the wall clock.
func (t *setupTimes) set(rep *report) {
	rep.set("setup_s", median(t.cpu))
	rep.set("setup_wall_s", median(t.wall))
}
