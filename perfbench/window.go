package main

import "time"

// window is the timed window of a run. In a traced run every second
// one-second slice is traced, so the traced and untraced rates that give
// bench.trace_overhead come from the same run under the same load.
type window struct {
	start, end time.Time
	trace      bool
}

func newWindow(seconds float64, trace bool) window {
	now := time.Now()
	return window{start: now, end: now.Add(time.Duration(seconds * float64(time.Second))), trace: trace}
}

func (w window) open() bool { return time.Now().Before(w.end) }

// traced reports whether an operation starting at t is traced.
func (w window) traced(t time.Time) bool {
	return w.trace && int(t.Sub(w.start)/time.Second)%2 == 1
}

// split returns the traced and untraced seconds of the window.
func (w window) split() (traced, untraced float64) {
	total := w.end.Sub(w.start).Seconds()
	if !w.trace {
		return 0, total
	}
	for s := 0.0; s < total; s++ {
		part := total - s
		if part > 1 {
			part = 1
		}
		if int(s)%2 == 1 {
			traced += part
		} else {
			untraced += part
		}
	}
	return traced, untraced
}

// traceOverhead is the mean latency of the traced reads over that of
// the untraced ones: 1 means tracing costs nothing. Latency rather than
// throughput, because write-mix's reader keeps a fixed rate whether
// traced or not.
func traceOverhead(ss []sample) (float64, bool) {
	var t, u []float64
	for _, s := range ss {
		switch {
		case !s.ok:
		case s.traced:
			t = append(t, s.ms)
		default:
			u = append(u, s.ms)
		}
	}
	if len(t) == 0 || len(u) == 0 {
		return 0, false
	}
	return mean(t) / mean(u), true
}
