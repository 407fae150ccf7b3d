package fops

// ARel is the arena-backed factorised relation: the same coupled
// (f-tree, representation) pair as FRel, but with all unions living in
// one frep.Store and addressed by node indices. Operators are
// arena-to-arena transforms: they append new nodes that reference
// untouched subtrees in place, so there are no per-node allocations and
// no deep clones — a whole-forest clone is three slab copies and a
// snapshot is O(1).

import (
	"fmt"

	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// Rel is the operator surface shared by the pointer-based FRel and the
// arena-backed ARel: everything an f-plan (and the engine's enumeration
// paths) needs, independent of the representation.
type Rel interface {
	// Forest returns the f-tree of the factorised relation.
	Forest() *ftree.Forest
	IsEmpty() bool
	MakeEmpty()
	Singletons() int
	Check() error
	Flatten() (*relation.Relation, error)
	SelectConst(attr string, op CmpOp, c values.Value) error
	Merge(attrA, attrB string) error
	Absorb(attrAnc, attrDesc string) error
	RemoveLeaf(attr string) error
	Rename(attr, to string) error
	Swap(attr string) error
	SwapNode(n *ftree.Node) error
	Gamma(attr string, fields []ftree.AggField) error
	GammaNode(n *ftree.Node, fields []ftree.AggField) error
	ComputeScalar(attr, newName string, fn func(values.Value) values.Value) error
	// Enumerator returns a constant-delay enumerator over the
	// representation, nil order for document order.
	Enumerator(order []frep.OrderSpec) (frep.TupleEnum, error)
	// GroupEnumerator returns a grouped enumerator computing the fields
	// per combination of the group attributes.
	GroupEnumerator(g []frep.OrderSpec, fields []ftree.AggField) (frep.GroupEnum, error)
}

var (
	_ Rel = (*FRel)(nil)
	_ Rel = (*ARel)(nil)
)

// ARel couples an f-tree with an arena representation over it: one store
// holding every union, and one root node id per f-tree root.
type ARel struct {
	Tree  *ftree.Forest
	Store *frep.Store
	Roots []frep.NodeID
	// Par is ignored: every operator runs serially on its caller's
	// goroutine. It remains only so that existing callers that set it
	// keep compiling.
	//
	// Deprecated: has no effect.
	Par int
}

// FromRelationStore factorises a relation into the store over the
// f-tree, verifying the decomposition (frep.BuildStore).
func FromRelationStore(s *frep.Store, rel *relation.Relation, f *ftree.Forest) (*ARel, error) {
	roots, err := frep.BuildStore(s, rel, f)
	if err != nil {
		return nil, err
	}
	return &ARel{Tree: f, Store: s, Roots: roots}, nil
}

// FromRelationStoreUnchecked factorises without verifying the
// decomposition; use only for f-trees known to be valid.
func FromRelationStoreUnchecked(s *frep.Store, rel *relation.Relation, f *ftree.Forest) (*ARel, error) {
	roots, err := frep.BuildStoreUnchecked(s, rel, f)
	if err != nil {
		return nil, err
	}
	return &ARel{Tree: f, Store: s, Roots: roots}, nil
}

// FromFRel copies a pointer-based factorised relation into a fresh arena
// store. The input is unchanged; the f-tree is cloned, since operators
// mutate their tree and the two relations must stay independent.
func FromFRel(fr *FRel) *ARel {
	s := frep.NewStore()
	t, _ := fr.Tree.Clone()
	return &ARel{Tree: t, Store: s, Roots: s.FromUnions(fr.Roots)}
}

// ToFRel materialises the pointer-based compatibility view of the arena
// relation (for diffing old against new, and for APIs that still speak
// *frep.Union). The f-tree is cloned so the two views stay independent.
func (ar *ARel) ToFRel() *FRel {
	t, _ := ar.Tree.Clone()
	return &FRel{Tree: t, Roots: ar.Store.ToUnions(ar.Roots)}
}

// Forest implements Rel.
func (ar *ARel) Forest() *ftree.Forest { return ar.Tree }

// Clone deep-copies the factorised relation — three slab copies plus the
// f-tree, regardless of node count. The returned ARel's tree nodes
// correspond to the original's via the second return value.
func (ar *ARel) Clone() (*ARel, map[*ftree.Node]*ftree.Node) {
	t, corr := ar.Tree.Clone()
	return &ARel{Tree: t, Store: ar.Store.Clone(), Roots: append([]frep.NodeID{}, ar.Roots...)}, corr
}

// Snapshot returns an O(1) immutable view sharing the store's slabs:
// both sides may keep transforming independently (appends copy out of
// the shared backing on first growth). This is how the server shares one
// materialised base representation across concurrent queries.
func (ar *ARel) Snapshot() *ARel {
	t, _ := ar.Tree.Clone()
	return &ARel{Tree: t, Store: ar.Store.Snapshot(), Roots: append([]frep.NodeID{}, ar.Roots...)}
}

// IsEmpty reports whether the represented relation is empty (some root
// union has no values).
func (ar *ARel) IsEmpty() bool {
	for _, r := range ar.Roots {
		if ar.Store.Len(r) == 0 {
			return true
		}
	}
	return false
}

// MakeEmpty canonicalises an empty representation: every root becomes
// the empty union.
func (ar *ARel) MakeEmpty() {
	for i := range ar.Roots {
		ar.Roots[i] = frep.EmptyNode
	}
}

// Check verifies the representation invariants against the f-tree;
// intended for tests and Paranoid mode.
func (ar *ARel) Check() error {
	if err := ar.Tree.Validate(); err != nil {
		return err
	}
	return frep.CheckStoreInvariantsAll(ar.Tree, ar.Store, ar.Roots)
}

// Flatten materialises the represented relation (plain values; aggregate
// nodes contribute their stored values).
func (ar *ARel) Flatten() (*relation.Relation, error) {
	return frep.FlattenStore(ar.Tree, ar.Store, ar.Roots)
}

// Singletons returns the representation size in singletons.
func (ar *ARel) Singletons() int { return ar.Store.SingletonsAll(ar.Roots) }

// Enumerator implements Rel.
func (ar *ARel) Enumerator(order []frep.OrderSpec) (frep.TupleEnum, error) {
	return frep.NewStoreEnumerator(ar.Tree, ar.Store, ar.Roots, order)
}

// GroupEnumerator implements Rel.
func (ar *ARel) GroupEnumerator(g []frep.OrderSpec, fields []ftree.AggField) (frep.GroupEnum, error) {
	return frep.NewStoreGroupEnumerator(ar.Tree, ar.Store, ar.Roots, g, fields)
}

// rebuildFn transforms one occurrence of a target union, returning its
// replacement (which may be EmptyNode to delete the context).
type rebuildFn func(id frep.NodeID) (frep.NodeID, error)

// rebuildAt applies fn to every occurrence of the node identified by
// (rootIdx, path), pruning values whose transformed subtree became
// empty. fn may hold builder and evaluator scratch bound to ar.Store.
func (ar *ARel) rebuildAt(rootIdx int, path []int, fn rebuildFn) error {
	nr, err := rebuildIn(ar.Store, ar.Roots[rootIdx], path, fn)
	if err != nil {
		return err
	}
	ar.Roots[rootIdx] = nr
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	return nil
}

// rebuildIn is the occurrence recursion of rebuildAt, reading and
// appending through st.
func rebuildIn(st *frep.Store, id frep.NodeID, path []int, fn rebuildFn) (frep.NodeID, error) {
	if len(path) == 0 {
		return fn(id)
	}
	p := path[0]
	n := st.Len(id)
	arity := st.Arity(id)
	vals := make([]values.Value, 0, n)
	kids := make([]frep.NodeID, 0, n*arity)
	for i := 0; i < n; i++ {
		row := st.KidRow(id, i)
		nk, err := rebuildIn(st, row[p], path[1:], fn)
		if err != nil {
			return frep.EmptyNode, err
		}
		if st.Len(nk) == 0 {
			continue // prune this value
		}
		vals = append(vals, st.Val(id, i))
		off := len(kids)
		kids = append(kids, row...)
		kids[off+p] = nk
	}
	return st.Add(vals, arity, kids), nil
}

// Product combines two arena factorised relations into one representing
// their Cartesian product: the forests are concatenated (with b's
// dependency tokens shifted to stay disjoint from a's) and b's store
// contents are grafted into a's when the two differ. The inputs are
// consumed.
func ProductArena(a, b *ARel) *ARel {
	b.Tree.ShiftTokens(a.Tree.TokenBound())
	a.Tree.Concat(b.Tree)
	if a.Store == b.Store {
		a.Roots = append(a.Roots, b.Roots...)
	} else {
		remap := a.Store.Graft(b.Store)
		for _, r := range b.Roots {
			a.Roots = append(a.Roots, remap(r))
		}
	}
	if a.IsEmpty() {
		a.MakeEmpty()
	}
	return a
}

// pathFromRoot returns the index of n's root tree and the child-index
// path from that root down to n (shared with FRel).
func (ar *ARel) pathFromRoot(n *ftree.Node) (int, []int, error) {
	return pathFromRoot(ar.Tree, n)
}

// pathFromRoot locates node n in the forest: the index of its root and
// the child-index path from that root down to n (empty when n is a
// root).
func pathFromRoot(t *ftree.Forest, n *ftree.Node) (int, []int, error) {
	var rev []int
	top := n
	for top.Parent != nil {
		rev = append(rev, top.Parent.ChildIndex(top))
		top = top.Parent
	}
	ri := t.RootIndex(top)
	if ri < 0 {
		return 0, nil, fmt.Errorf("fops: node %s not in this forest", n.Label())
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return ri, path, nil
}
