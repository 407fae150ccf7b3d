package engine

// Partial-merge entry points for distributed execution. A scatter-gather
// coordinator (internal/cluster) receives per-shard aggregate rows over
// the wire and must combine them with the aggregation algebra's own
// merge (frep.MergePartials), so that a distributed aggregate matches
// its single-process evaluation: counts and sums add (integer sums
// bit-identically), min and max take
// the extremum under the values total order, and avg is reconstructed
// from shipped sum and count partials with the engine's own finaliser.

import (
	"fmt"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/values"
)

// PartialFields maps a query's aggregate list to the mergeable field
// algebra of the factorised representation. Avg has no associative
// partial form at the row level — it ships as a (sum, count) pair — so
// a query containing Avg must be rewritten (see cluster's planner)
// before its shard rows can merge; asking for its fields is an error.
func PartialFields(aggs []query.Aggregate) ([]ftree.AggField, error) {
	fields := make([]ftree.AggField, len(aggs))
	for i, a := range aggs {
		switch a.Fn {
		case query.Count:
			fields[i] = ftree.AggField{Fn: ftree.Count}
		case query.Sum:
			fields[i] = ftree.AggField{Fn: ftree.Sum, Arg: a.Arg}
		case query.Min:
			fields[i] = ftree.AggField{Fn: ftree.Min, Arg: a.Arg}
		case query.Max:
			fields[i] = ftree.AggField{Fn: ftree.Max, Arg: a.Arg}
		default:
			return nil, fmt.Errorf("engine: %s has no mergeable partial form; rewrite it as sum and count", a.Fn)
		}
	}
	return fields, nil
}

// MergePartialAggRow folds one shard's aggregate outputs src into the
// running outputs dst, field by field (frep.MergePartials): count and
// sum add, min and max take the extremum. Null is the identity, so dst may start as all Nulls.
// fields comes from PartialFields; len(dst) == len(src) == len(fields).
func MergePartialAggRow(fields []ftree.AggField, dst, src []values.Value) {
	frep.MergePartials(fields, dst, src)
}

// FinalizeAvg reconstructs an avg output from its shipped sum and count
// partials, using the identical division the engine applies when it
// finalises the composite (sum, count) pair locally.
func FinalizeAvg(sum, count values.Value) values.Value {
	return values.Div(sum, count)
}
