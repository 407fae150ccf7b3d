package frep

// Arena counterparts of the constant-delay enumerators: the odometer
// walks uint32 node indices and dense value slabs instead of chasing
// *Union pointers, and grouped enumeration evaluates its parts into
// reused buffers so steady-state enumeration does not allocate.

import (
	"fmt"

	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/values"
)

// storeSlot is one loop of the arena enumeration odometer: its spec plus
// the current union (as a node id and a cached value-slab view) and
// position.
type storeSlot struct {
	slotSpec
	id   NodeID
	vals []values.Value
	pos  int
}

// StoreEnumerator is Enumerator over the arena representation.
type StoreEnumerator struct {
	store   *Store
	roots   []NodeID
	slots   []storeSlot
	cols    []colRef
	schema  []string
	tuple   relation.Tuple
	started bool
	done    bool

	// Lazily built ranked direct-access state; see seek.go.
	seekst *seekState
}

// NewStoreEnumerator creates a constant-delay enumerator over the arena
// representation; see NewEnumerator for the order semantics.
func NewStoreEnumerator(f *ftree.Forest, s *Store, roots []NodeID, order []OrderSpec) (*StoreEnumerator, error) {
	if len(roots) != len(f.Roots) {
		return nil, fmt.Errorf("frep: %d root unions for %d f-tree roots", len(roots), len(f.Roots))
	}
	p, err := planEnum(f, order)
	if err != nil {
		return nil, err
	}
	return newStoreEnumeratorFromPlan(s, roots, p), nil
}

func newStoreEnumeratorFromPlan(s *Store, roots []NodeID, p *enumPlan) *StoreEnumerator {
	e := &StoreEnumerator{store: s, roots: roots, cols: p.cols, schema: p.schema}
	e.slots = make([]storeSlot, len(p.slots))
	for i, sp := range p.slots {
		e.slots[i] = storeSlot{slotSpec: sp}
	}
	e.tuple = make(relation.Tuple, len(p.cols))
	return e
}

// Schema returns the output column names (FlatSchema of the forest).
func (e *StoreEnumerator) Schema() []string { return e.schema }

// Next advances to the next tuple, returning false when exhausted. The
// first call positions at the first tuple.
func (e *StoreEnumerator) Next() bool {
	if !e.advance() {
		return false
	}
	e.fill()
	return true
}

// Skip advances past up to n tuples without assembling them, returning
// how many were skipped; see Enumerator.Skip.
func (e *StoreEnumerator) Skip(n int) int {
	k := 0
	for k < n && e.advance() {
		k++
	}
	return k
}

// advance moves the odometer to the next position without assembling the
// output tuple; it returns false when exhausted.
func (e *StoreEnumerator) advance() bool {
	if e.done {
		return false
	}
	if !e.started {
		e.started = true
		for i := range e.slots {
			if !e.resetSlot(i) {
				e.done = true
				return false
			}
		}
		return true
	}
	for i := len(e.slots) - 1; i >= 0; i-- {
		s := &e.slots[i]
		if s.desc {
			if s.pos > 0 {
				s.pos--
			} else {
				continue
			}
		} else {
			if s.pos+1 < len(s.vals) {
				s.pos++
			} else {
				continue
			}
		}
		for j := i + 1; j < len(e.slots); j++ {
			if !e.resetSlot(j) {
				// Unions below the top level are never empty; resetting
				// mid-stream cannot fail.
				e.done = true
				return false
			}
		}
		return true
	}
	e.done = true
	return false
}

// resetSlot re-resolves slot i's union from its parent state and rewinds
// its position. It returns false if the union is empty.
func (e *StoreEnumerator) resetSlot(i int) bool {
	s := &e.slots[i]
	if s.parentSlot < 0 {
		s.id = e.roots[s.rootIdx]
	} else {
		p := &e.slots[s.parentSlot]
		s.id = e.store.Kid(p.id, p.pos, s.childIdx)
	}
	s.vals = e.store.Vals(s.id)
	if len(s.vals) == 0 {
		return false
	}
	if s.desc {
		s.pos = len(s.vals) - 1
	} else {
		s.pos = 0
	}
	return true
}

func (e *StoreEnumerator) fill() {
	for ci, c := range e.cols {
		s := &e.slots[c.slotIdx]
		v := s.vals[s.pos]
		if c.fieldIdx >= 0 {
			v = v.VecAt(c.fieldIdx)
		}
		e.tuple[ci] = v
	}
}

// Tuple returns the current tuple. The returned slice is reused by Next;
// clone it to retain.
func (e *StoreEnumerator) Tuple() relation.Tuple { return e.tuple }

// StoreGroupEnumerator is GroupEnumerator over the arena representation.
// Unlike the pointer-based version it evaluates its aggregation parts
// into reused buffers, so advancing between groups does not allocate.
type StoreGroupEnumerator struct {
	inner   *StoreEnumerator // over the group slots only
	fields  []ftree.AggField
	schema  []string
	tuple   relation.Tuple
	nGroup  int
	parts   []storeAggPart
	carrier []int
}

// storeAggPart is one maximal non-group subtree to aggregate, with a
// compiled evaluator and a reused output buffer.
type storeAggPart struct {
	partSpec
	ev    *Evaluator
	vals  []values.Value
	count int64
}

// NewStoreGroupEnumerator builds a grouped enumerator over the arena
// representation; see NewGroupEnumerator for the semantics.
func NewStoreGroupEnumerator(f *ftree.Forest, s *Store, roots []NodeID, g []OrderSpec, fields []ftree.AggField) (*StoreGroupEnumerator, error) {
	gp, err := planGroupEnum(f, g, fields)
	if err != nil {
		return nil, err
	}
	ge := &StoreGroupEnumerator{
		inner:   newStoreEnumeratorFromPlan(s, roots, gp.ep),
		fields:  fields,
		schema:  gp.schema,
		nGroup:  gp.nGroup,
		carrier: gp.carrier,
	}
	ge.parts = make([]storeAggPart, len(gp.parts))
	for i, ps := range gp.parts {
		ev, err := NewEvaluator(ps.node, ps.evFields)
		if err != nil {
			return nil, err
		}
		ge.parts[i] = storeAggPart{
			partSpec: ps,
			ev:       ev,
			vals:     make([]values.Value, len(ps.evFields)),
		}
	}
	ge.tuple = make(relation.Tuple, len(gp.schema))
	return ge, nil
}

// Schema returns group columns followed by one column per aggregation
// field.
func (g *StoreGroupEnumerator) Schema() []string { return g.schema }

// Next advances to the next group, returning false when done.
func (g *StoreGroupEnumerator) Next() (bool, error) {
	if len(g.inner.slots) == 0 {
		if g.inner.done {
			return false, nil
		}
		g.inner.done = true
		if err := g.evalParts(); err != nil {
			return false, err
		}
		g.fillAggs()
		return true, nil
	}
	if !g.inner.Next() {
		return false, nil
	}
	copy(g.tuple[:g.nGroup], g.inner.Tuple())
	if err := g.evalParts(); err != nil {
		return false, err
	}
	g.fillAggs()
	return true, nil
}

// Skip advances past up to n groups without evaluating their aggregation
// parts, returning how many were skipped; see GroupEnumerator.Skip.
func (g *StoreGroupEnumerator) Skip(n int) int {
	if len(g.inner.slots) == 0 {
		if n > 0 && !g.inner.done {
			g.inner.done = true
			return 1
		}
		return 0
	}
	return g.inner.Skip(n)
}

func (g *StoreGroupEnumerator) evalParts() error {
	st := g.inner.store
	for pi := range g.parts {
		p := &g.parts[pi]
		var id NodeID
		if p.parentSlot < 0 {
			id = g.inner.roots[p.rootIdx]
		} else {
			s := &g.inner.slots[p.parentSlot]
			id = st.Kid(s.id, s.pos, p.childIdx)
		}
		if err := p.ev.EvalStoreInto(st, id, p.vals); err != nil {
			return err
		}
		if p.countIdx >= 0 {
			p.count = p.vals[p.countIdx].Int()
		} else {
			p.count = 1 // multiplicity not needed by any output
		}
	}
	return nil
}

func (g *StoreGroupEnumerator) fillAggs() {
	fillAggTuple(g.tuple[g.nGroup:], g.fields, g.carrier, len(g.parts),
		func(pi int) int64 { return g.parts[pi].count },
		func(pi, fi int) values.Value { return g.parts[pi].vals[g.parts[pi].fieldIdx[fi]] })
}

// Tuple returns the current group tuple (group values then aggregates).
// The slice is reused; clone to retain.
func (g *StoreGroupEnumerator) Tuple() relation.Tuple { return g.tuple }
