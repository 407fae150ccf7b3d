package engine

// ParStats once counted the segment workers of intra-query parallelism.
// Every query now runs serially on its caller's goroutine, so every
// field is always 0; the type remains only so that existing readers
// keep compiling.
//
// Deprecated: the counters are always 0.
type ParStats struct {
	EnumWorkers int64
	OpWorkers   int64
	EvalWorkers int64
}

// ParallelStats returns the zero ParStats.
//
// Deprecated: the counters are always 0.
func ParallelStats() ParStats { return ParStats{} }
