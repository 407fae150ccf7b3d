package main

// Every read of a process-wide counter of the program lives in this
// file. They measure the whole process, so they are read only while the
// benchmark alone drives it; per-query stats will replace them.

import (
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/frep"
)

type counters struct {
	par  engine.ParStats
	offs engine.OffsetStats
}

func readCounters() counters {
	return counters{par: engine.ParallelStats(), offs: engine.SeekSkipStats()}
}

// workersSince counts the intra-query segment workers spawned since prev.
func (c counters) workersSince(prev counters) int64 {
	return (c.par.EnumWorkers - prev.par.EnumWorkers) +
		(c.par.OpWorkers - prev.par.OpWorkers) +
		(c.par.EvalWorkers - prev.par.EvalWorkers)
}

// seekShare is the share of OFFSET clauses since prev answered by a
// direct seek rather than the linear skip loop; ok is false when no
// OFFSET was applied.
func (c counters) seekShare(prev counters) (share float64, ok bool) {
	seek := c.offs.SeekOffsets - prev.offs.SeekOffsets
	skip := c.offs.SkipOffsets - prev.offs.SkipOffsets
	if seek+skip == 0 {
		return 0, false
	}
	return float64(seek) / float64(seek+skip), true
}

// kernelShare runs fn with the kernel dispatch counters on and returns
// the share of dispatches the vectorised kernels handled; ok is false
// when nothing dispatched. No query may run concurrently with it.
func kernelShare(fn func()) (share float64, ok bool) {
	frep.ResetKernelStats()
	frep.KernelStatsEnabled = true
	fn()
	frep.KernelStatsEnabled = false
	k := frep.ReadKernelStats()
	hit := k.SelectKernel + k.AggKernel + k.Find + k.Intersect
	miss := k.SelectFallback + k.AggFallback + k.FindFallback + k.IntersectFallback
	if hit+miss == 0 {
		return 0, false
	}
	return float64(hit) / float64(hit+miss), true
}
