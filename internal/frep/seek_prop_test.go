package frep

// Randomized equivalence suite for ranked direct access: on generated
// forests of varying depth, fanout, skew and emptiness, Seek(k) must be
// observationally identical to Skip(k) on a fresh enumerator — same
// return value, same remaining stream — for tuple and group
// enumerators, ascending and descending, ranked and unranked stores.
// Skip is pinned by the existing suites, so agreement with Skip pins
// Seek.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// randTree builds a random f-tree over attrs: a root holding attrs[0]
// and a random partition of the rest into child subtrees.
func randTree(rng *rand.Rand, f *ftree.Forest, tok int, attrs []string) *ftree.Node {
	n := &ftree.Node{Attrs: []string{attrs[0]}, Deps: ftree.NewTokenSet(tok)}
	rest := attrs[1:]
	for len(rest) > 0 {
		take := 1 + rng.Intn(len(rest))
		c := randTree(rng, f, tok, rest[:take])
		c.Parent = n
		n.Children = append(n.Children, c)
		rest = rest[take:]
	}
	return n
}

// randForest generates a forest over 1..5 attributes (1 or 2 roots) and
// a relation over them with skewed small domains, possibly empty.
func randForest(rng *rand.Rand) (*ftree.Forest, *relation.Relation) {
	nAttrs := 1 + rng.Intn(5)
	attrs := make([]string, nAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	f := ftree.New()
	shuffled := append([]string(nil), attrs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nRoots := 1
	if nAttrs > 1 && rng.Intn(3) == 0 {
		nRoots = 2
	}
	split := len(shuffled)
	if nRoots == 2 {
		split = 1 + rng.Intn(len(shuffled)-1)
	}
	groups := [][]string{shuffled[:split]}
	if nRoots == 2 {
		groups = append(groups, shuffled[split:])
	}
	for _, g := range groups {
		r := randTree(rng, f, f.NewToken(), g)
		f.Roots = append(f.Roots, r)
	}

	// Skewed data: small per-attribute domains, a hot value, sometimes no
	// rows at all (empty top-level unions).
	nRows := rng.Intn(40)
	if rng.Intn(6) == 0 {
		nRows = 0
	}
	domains := make([]int, nAttrs)
	for i := range domains {
		domains[i] = 1 + rng.Intn(12)
	}
	seen := map[string]bool{}
	var rows []relation.Tuple
	for r := 0; r < nRows; r++ {
		tup := make(relation.Tuple, nAttrs)
		key := ""
		for i := range tup {
			v := int64(rng.Intn(domains[i]))
			if rng.Intn(2) == 0 {
				v = 0 // hot value: heavy skew under the first branch
			}
			tup[i] = values.NewInt(v)
			key += fmt.Sprintf(",%d", v)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, tup)
	}
	return f, relation.MustNew("R", attrs, rows)
}

// drainTuples collects the remaining stream of a tuple enumerator.
func drainTuples(en *StoreEnumerator) []relation.Tuple {
	var out []relation.Tuple
	for en.Next() {
		out = append(out, en.Tuple().Clone())
	}
	return out
}

// drainGroups collects the remaining stream of a group enumerator.
func drainGroups(t *testing.T, ge *StoreGroupEnumerator) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for {
		ok, err := ge.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, ge.Tuple().Clone())
	}
}

func sameStreams(t *testing.T, ctx string, want, got []relation.Tuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: stream lengths differ: Skip leaves %d, Seek leaves %d", ctx, len(want), len(got))
	}
	for i := range want {
		if relation.Compare(want[i], got[i]) != 0 {
			t.Fatalf("%s: row %d differs: Skip %v, Seek %v", ctx, i, want[i], got[i])
		}
	}
}

// seekKs returns the offsets the issue pins: 0, 1, mid, total−1, total,
// total+7.
func seekKs(total int) []int {
	ks := []int{0, 1, total / 2, total - 1, total, total + 7}
	out := ks[:0]
	for _, k := range ks {
		if k >= 0 {
			out = append(out, k)
		}
	}
	return out
}

func TestSeekMatchesSkipRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 200; iter++ {
		f, rel := randForest(rng)
		s := NewStore()
		roots, err := BuildStoreUnchecked(s, rel, f)
		if err != nil {
			t.Fatalf("iter %d: build: %v", iter, err)
		}

		// Candidate order specs: none, and — when the tree supports it —
		// the first root attribute ascending and descending.
		orders := [][]OrderSpec{nil}
		rootAttr := f.Roots[0].Attrs[0]
		if f.SupportsOrder([]string{rootAttr}) {
			orders = append(orders,
				[]OrderSpec{{Attr: rootAttr}},
				[]OrderSpec{{Attr: rootAttr, Desc: true}})
		}

		// Phase 0 checks the memoized fallback (no ranks); phase 1 builds
		// the index and checks the ranked path.
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				if err := s.BuildRanks(); err != nil {
					t.Fatalf("iter %d: BuildRanks: %v", iter, err)
				}
			}
			for oi, order := range orders {
				mk := func() *StoreEnumerator {
					en, err := NewStoreEnumerator(f, s, roots, order)
					if err != nil {
						t.Fatalf("iter %d: enumerator: %v", iter, err)
					}
					return en
				}
				full := drainTuples(mk())
				if got := mk().Total(); got != int64(len(full)) {
					t.Fatalf("iter %d phase %d order %d: Total = %d, want %d", iter, phase, oi, got, len(full))
				}
				if phase == 1 {
					if en := mk(); !en.SeekRanked() {
						t.Fatalf("iter %d order %d: ranked store, but SeekRanked() = false", iter, oi)
					}
				}
				for _, k := range seekKs(len(full)) {
					ctx := fmt.Sprintf("iter %d phase %d order %d k %d", iter, phase, oi, k)
					a, b := mk(), mk()
					na, nb := a.Skip(k), b.Seek(k)
					if na != nb {
						t.Fatalf("%s: Skip = %d, Seek = %d", ctx, na, nb)
					}
					sameStreams(t, ctx, drainTuples(a), drainTuples(b))
				}
			}
		}
	}
}

// groupSpecs picks a prefix-closed set of nodes of the first root in
// DFS order, so the grouped enumerator's slots wire parent-first.
func groupSpecs(rng *rand.Rand, f *ftree.Forest, desc bool) ([]OrderSpec, map[string]bool) {
	var specs []OrderSpec
	grouped := map[string]bool{}
	var walk func(n *ftree.Node)
	walk = func(n *ftree.Node) {
		specs = append(specs, OrderSpec{Attr: n.Attrs[0], Desc: desc})
		grouped[n.Attrs[0]] = true
		for _, c := range n.Children {
			if rng.Intn(2) == 0 {
				walk(c)
			}
		}
	}
	walk(f.Roots[0])
	return specs, grouped
}

func TestGroupSeekMatchesSkipRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 200; iter++ {
		f, rel := randForest(rng)
		s := NewStore()
		roots, err := BuildStoreUnchecked(s, rel, f)
		if err != nil {
			t.Fatalf("iter %d: build: %v", iter, err)
		}
		specs, grouped := groupSpecs(rng, f, rng.Intn(2) == 1)
		gAttrs := make([]string, len(specs))
		for i, sp := range specs {
			gAttrs[i] = sp.Attr
		}
		if !f.SupportsGrouping(gAttrs) {
			continue
		}
		fields := []ftree.AggField{{Fn: ftree.Count}}
		for _, a := range rel.Attrs {
			if !grouped[a] {
				fields = append(fields, ftree.AggField{Fn: ftree.Sum, Arg: a})
				break
			}
		}
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				if err := s.BuildRanks(); err != nil {
					t.Fatalf("iter %d: BuildRanks: %v", iter, err)
				}
			}
			mk := func() *StoreGroupEnumerator {
				ge, err := NewStoreGroupEnumerator(f, s, roots, specs, fields)
				if err != nil {
					t.Fatalf("iter %d: group enumerator: %v", iter, err)
				}
				return ge
			}
			full := drainGroups(t, mk())
			if got := mk().Total(); got != int64(len(full)) {
				t.Fatalf("iter %d phase %d: group Total = %d, want %d", iter, phase, got, len(full))
			}
			for _, k := range seekKs(len(full)) {
				ctx := fmt.Sprintf("iter %d phase %d k %d (group)", iter, phase, k)
				a, b := mk(), mk()
				na, nb := a.Skip(k), b.Seek(k)
				if na != nb {
					t.Fatalf("%s: Skip = %d, Seek = %d", ctx, na, nb)
				}
				sameStreams(t, ctx, drainGroups(t, a), drainGroups(t, b))
			}
		}
	}
}
