package frep

import (
	"bytes"
	"testing"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

func ivs(vs ...int64) []values.Value {
	out := make([]values.Value, len(vs))
	for i, v := range vs {
		out[i] = values.NewInt(v)
	}
	return out
}

func testRel(t testing.TB) (*relation.Relation, *ftree.Forest) {
	t.Helper()
	ts := []relation.Tuple{}
	for _, row := range [][3]int64{
		{1, 10, 100}, {1, 10, 200}, {1, 20, 100},
		{2, 10, 300}, {2, 30, 100}, {3, 30, 300},
	} {
		ts = append(ts, relation.Tuple{
			values.NewInt(row[0]), values.NewInt(row[1]), values.NewInt(row[2]),
		})
	}
	rel := relation.MustNew("R", []string{"a", "b", "c"}, ts)
	f := ftree.New()
	f.NewRelationPath("a", "b", "c")
	return rel, f
}

// TestBuildStoreMatchesBuild asserts the arena build produces the same
// structure as the pointer-based build, node for node.
func TestBuildStoreMatchesBuild(t *testing.T) {
	rel, f := testRel(t)
	legacy, err := BuildUnchecked(rel, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStoreInvariantsAll(f, s, roots); err != nil {
		t.Fatal(err)
	}
	for i := range roots {
		if !EqualStoreUnion(s, roots[i], legacy[i]) {
			t.Fatalf("root %d: arena and legacy builds differ", i)
		}
	}
	if got, want := s.CountPlain(roots[0]), CountPlain(f.Roots[0], legacy[0]); got != want {
		t.Fatalf("CountPlain = %d, want %d", got, want)
	}
	if got, want := s.SingletonsAll(roots), SingletonsAll(legacy); got != want {
		t.Fatalf("Singletons = %d, want %d", got, want)
	}
}

func TestStoreConversionsRoundTrip(t *testing.T) {
	rel, f := testRel(t)
	legacy, err := BuildUnchecked(rel, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	ids := s.FromUnions(legacy)
	back := s.ToUnions(ids)
	for i := range legacy {
		if !Equal(legacy[i], back[i]) {
			t.Fatalf("root %d: ToUnion(FromUnion(u)) differs from u", i)
		}
		if !EqualStoreUnion(s, ids[i], legacy[i]) {
			t.Fatalf("root %d: EqualStoreUnion false after FromUnion", i)
		}
	}
}

func TestStoreCloneAndSnapshot(t *testing.T) {
	rel, f := testRel(t)
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Clone()
	snap := s.Snapshot()
	// Appends to any copy must not disturb the others: each copy gets a
	// node with different contents at the same id.
	added := s.AddLeaf(ivs(7, 8, 9))
	clAdded := cl.AddLeaf(ivs(1))
	snapAdded := snap.AddLeaf(ivs(2, 3))
	for _, st := range []*Store{cl, snap} {
		if !EqualStore(st, roots[0], s, roots[0]) {
			t.Fatal("copies diverged on shared prefix")
		}
	}
	if added != clAdded || added != snapAdded {
		t.Fatalf("appended ids diverged: %d/%d/%d", added, clAdded, snapAdded)
	}
	if s.Len(added) != 3 || cl.Len(clAdded) != 1 || snap.Len(snapAdded) != 2 {
		t.Fatalf("appended nodes leaked across copies: %d/%d/%d values",
			s.Len(added), cl.Len(clAdded), snap.Len(snapAdded))
	}
}

func TestStoreResetReusesSlabs(t *testing.T) {
	rel, f := testRel(t)
	s := NewStore()
	if _, err := BuildStoreUnchecked(s, rel, f); err != nil {
		t.Fatal(err)
	}
	nodes, vals, kids := s.MemStats()
	if nodes == 1 || vals == 0 || kids == 0 {
		t.Fatalf("expected populated slabs, got %d/%d/%d", nodes, vals, kids)
	}
	s.Reset()
	nodes, vals, kids = s.MemStats()
	if nodes != 1 || vals != 0 || kids != 0 {
		t.Fatalf("after Reset: %d/%d/%d, want 1/0/0", nodes, vals, kids)
	}
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStoreInvariantsAll(f, s, roots); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGraft(t *testing.T) {
	rel, f := testRel(t)
	a := NewStore()
	b := NewStore()
	aRoots, err := BuildStoreUnchecked(a, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	bRoots, err := BuildStoreUnchecked(b, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	remap := a.Graft(b)
	moved := remap(bRoots[0])
	if !EqualStore(a, moved, b, bRoots[0]) {
		t.Fatal("grafted subtree differs from source")
	}
	if !EqualStore(a, moved, a, aRoots[0]) {
		t.Fatal("grafted subtree differs from equivalent native build")
	}
}

// TestOverlayReadsBaseInPlace takes several overlays over one base and
// appends structure into each that references shared base nodes: every
// overlay resolves base ids in place, its own appends stay private
// (sibling overlays hand out the same ids independently), and the base
// is unchanged.
func TestOverlayReadsBaseInPlace(t *testing.T) {
	base := NewStore()
	shared := base.AddLeaf(ivs(7, 9))
	baseNodes := base.NodeCount()

	var ovs []*Store
	var roots []NodeID
	for w := 0; w < 3; w++ {
		o := base.Overlay()
		priv := o.AddLeaf(ivs(int64(100 + w)))
		roots = append(roots, o.Add(ivs(1, 2), 1, []NodeID{shared, priv}))
		ovs = append(ovs, o)
	}
	for w, o := range ovs {
		if roots[w] != roots[0] {
			t.Fatalf("w%d: overlay root id %d, want %d (ids continue the base's space independently)", w, roots[w], roots[0])
		}
		if o.Len(roots[w]) != 2 || o.Arity(roots[w]) != 1 {
			t.Fatalf("w%d: root len/arity = %d/%d, want 2/1", w, o.Len(roots[w]), o.Arity(roots[w]))
		}
		if got := o.Kid(roots[w], 0, 0); got != shared || o.Val(got, 1).Int() != 9 {
			t.Fatalf("w%d: base reference resolves to node %d", w, got)
		}
		if got := o.Val(o.Kid(roots[w], 1, 0), 0).Int(); got != int64(100+w) {
			t.Fatalf("w%d: private leaf value = %d, want %d", w, got, 100+w)
		}
	}
	if base.NodeCount() != baseNodes || base.Len(shared) != 2 {
		t.Fatal("appending to overlays changed the base store")
	}
}

func TestStoreEmptyNode(t *testing.T) {
	s := NewStore()
	if got := s.Add(nil, 3, nil); got != EmptyNode {
		t.Fatalf("Add of no values = %d, want EmptyNode", got)
	}
	if s.Len(EmptyNode) != 0 || s.Arity(EmptyNode) != 0 {
		t.Fatal("EmptyNode must have no values and arity 0")
	}
}

// TestEvalStoreMatchesEval runs the composite evaluator over both
// representations of the same data.
func TestEvalStoreMatchesEval(t *testing.T) {
	rel, f := testRel(t)
	legacy, err := BuildUnchecked(rel, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	fields := []ftree.AggField{
		{Fn: ftree.Count},
		{Fn: ftree.Sum, Arg: "c"},
		{Fn: ftree.Min, Arg: "b"},
		{Fn: ftree.Max, Arg: "c"},
	}
	ev, err := NewEvaluator(f.Roots[0], fields)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Eval(legacy[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalStore(s, roots[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if values.Compare(want[i], got[i]) != 0 {
			t.Fatalf("field %d: legacy %v, arena %v", i, want[i], got[i])
		}
	}
	cl, err := CountStore(f.Roots[0], s, roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if cl != want[0].Int() {
		t.Fatalf("CountStore = %d, want %d", cl, want[0].Int())
	}
}

// TestStoreEnumeratorMatchesEnumerator diffs full enumerations, in
// document order and under an explicit order.
func TestStoreEnumeratorMatchesEnumerator(t *testing.T) {
	rel, f := testRel(t)
	legacy, err := BuildUnchecked(rel, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]OrderSpec{
		nil,
		{{Attr: "a", Desc: true}, {Attr: "b"}},
	} {
		le, err := NewEnumerator(f, legacy, order)
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewStoreEnumerator(f, s, roots, order)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			ln, sn := le.Next(), se.Next()
			if ln != sn {
				t.Fatalf("order %v: Next() diverged at tuple %d (%v vs %v)", order, i, ln, sn)
			}
			if !ln {
				break
			}
			lt, st := le.Tuple(), se.Tuple()
			for c := range lt {
				if values.Compare(lt[c], st[c]) != 0 {
					t.Fatalf("order %v tuple %d col %d: %v vs %v", order, i, c, lt[c], st[c])
				}
			}
		}
	}
}

// TestStoreGroupEnumeratorMatches diffs grouped enumeration with
// aggregates between the representations.
func TestStoreGroupEnumeratorMatches(t *testing.T) {
	rel, f := testRel(t)
	legacy, err := BuildUnchecked(rel, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	g := []OrderSpec{{Attr: "a"}}
	fields := []ftree.AggField{{Fn: ftree.Count}, {Fn: ftree.Sum, Arg: "c"}}
	lg, err := NewGroupEnumerator(f, legacy, g, fields)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewStoreGroupEnumerator(f, s, roots, g, fields)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		lok, lerr := lg.Next()
		sok, serr := sg.Next()
		if (lerr != nil) != (serr != nil) {
			t.Fatalf("group %d: errors diverged: %v vs %v", i, lerr, serr)
		}
		if lerr != nil {
			break
		}
		if lok != sok {
			t.Fatalf("group %d: Next() diverged (%v vs %v)", i, lok, sok)
		}
		if !lok {
			break
		}
		lt, st := lg.Tuple(), sg.Tuple()
		for c := range lt {
			if values.Compare(lt[c], st[c]) != 0 {
				t.Fatalf("group %d col %d: %v vs %v", i, c, lt[c], st[c])
			}
		}
	}
}

// TestStoreCodecInterchange writes from each representation and reads
// into each, asserting byte-identical encodings and equal decodes.
func TestStoreCodecInterchange(t *testing.T) {
	rel, f := testRel(t)
	legacy, err := BuildUnchecked(rel, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	var lbuf, sbuf bytes.Buffer
	if err := WriteTo(&lbuf, f, legacy); err != nil {
		t.Fatal(err)
	}
	if err := WriteStoreTo(&sbuf, f, s, roots); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lbuf.Bytes(), sbuf.Bytes()) {
		t.Fatal("legacy and arena encodings differ")
	}
	// Legacy bytes → arena store.
	_, s2, roots2, err := ReadStoreFrom(bytes.NewReader(lbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range roots2 {
		if !EqualStoreUnion(s2, roots2[i], legacy[i]) {
			t.Fatalf("root %d differs after arena decode", i)
		}
	}
	// Arena bytes → legacy unions.
	_, back, err := ReadFrom(bytes.NewReader(sbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if !Equal(back[i], legacy[i]) {
			t.Fatalf("root %d differs after legacy decode of arena bytes", i)
		}
	}
}

func TestFlattenStoreMatchesFlatten(t *testing.T) {
	rel, f := testRel(t)
	legacy, err := BuildUnchecked(rel, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	roots, err := BuildStoreUnchecked(s, rel, f)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := Flatten(f, legacy)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := FlattenStore(f, s, roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Tuples) != len(sf.Tuples) {
		t.Fatalf("FlattenStore has %d tuples, Flatten %d", len(sf.Tuples), len(lf.Tuples))
	}
	for i := range lf.Tuples {
		if relation.Compare(lf.Tuples[i], sf.Tuples[i]) != 0 {
			t.Fatalf("tuple %d differs: %v vs %v", i, lf.Tuples[i], sf.Tuples[i])
		}
	}
}
