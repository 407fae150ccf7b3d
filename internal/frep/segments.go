package frep

// Contiguous splits of a union's value window, and the merge of partial
// aggregates computed over them. The root union of a representation
// partitions into contiguous value windows; the Section 3.2 aggregation
// algebra is associative field by field (count and sum add, min and max
// take the extremum), so partial results over disjoint windows — such
// as the shards of a split catalogue — merge into the whole union's.

import (
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/values"
)

// Segments splits [0, n) into at most p non-empty contiguous windows of
// near-equal size, in ascending order.
func Segments(n, p int) [][2]int {
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	if n == 0 {
		return nil
	}
	out := make([][2]int, 0, p)
	size, rem := n/p, n%p
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + size
		if w < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// MergePartials folds the segment result src into the running result
// dst, field by field: count and sum add, min and max take the
// extremum. Null — the value of a non-count field over an empty
// segment — is the identity of every merge, so dst may start as all
// Nulls.
func MergePartials(fields []ftree.AggField, dst, src []values.Value) {
	for i, fl := range fields {
		switch fl.Fn {
		case ftree.Count, ftree.Sum:
			dst[i] = values.Add(dst[i], src[i])
		case ftree.Min:
			dst[i] = values.Min(dst[i], src[i])
		case ftree.Max:
			dst[i] = values.Max(dst[i], src[i])
		}
	}
}
