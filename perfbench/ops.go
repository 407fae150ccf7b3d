package main

import (
	"fmt"
	"runtime"

	"github.com/factordb/fdb/internal/engine"

	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/plan"
	"github.com/factordb/fdb/internal/query"
)

// subject is one statement as the operator analysis sees it.
type subject struct {
	cat    []ftree.CatalogRelation
	forest func() *ftree.Forest           // a fresh copy of the f-tree the plan starts from
	exec   func() (*engine.Result, error) // the statement's untraced execution
	start  func() (*fops.ARel, error)     // a fresh copy of the f-rep the plan starts from
}

// analyse is the traced run's per-statement analysis: planning time,
// the cost model's bound against the singletons built, and the executed
// plan's operators replayed one at a time on a fresh copy of its input.
// The replay must reproduce the untraced execution's singletons and
// answer, or the operator metrics are reported invalid.
func analyse(tr *tracer, rep *report, partialAgg bool, stmts []stmt, subjectOf func(stmt) (subject, error)) {
	var bounds, appended []float64
	var bad error
	share, ok := kernelShare(func() {
		for _, s := range stmts {
			if err := analyseOne(tr, partialAgg, s, subjectOf, &bounds, &appended); err != nil {
				bad = fmt.Errorf("%s: %w", s.id, err)
				return
			}
		}
	})
	if bad != nil {
		invalidOps(rep, bad.Error())
		return
	}
	if ok {
		rep.set("frep.kernel_share", share)
	}
	rep.set("plan.bound_over_actual", median(bounds))
	rep.set("fops.appended_values_per_query", mean(appended))
	rep.set("plan.plan_ms", median(layerTimes(tr.all())["plan.Plan"]))
}

func analyseOne(tr *tracer, partialAgg bool, s stmt, subjectOf func(stmt) (subject, error), bounds, appended *[]float64) error {
	req := tr.newID()
	sub, err := subjectOf(s)
	if err != nil {
		return err
	}
	pl := &plan.Planner{Catalog: sub.cat, PartialAgg: partialAgg}
	for i := 0; i < 3; i++ {
		f := sub.forest()
		tr.timed(req, req, "plan.Plan", func() { _, _ = pl.Plan(f, s.q) })
	}
	res, err := sub.exec()
	if err != nil {
		return err
	}
	want, werr := factDigest(res.ARel)
	single, p := res.Singletons(), res.Plan
	res.Close()
	if werr != nil {
		return werr
	}
	ar, err := sub.start()
	if err != nil {
		return err
	}
	if b, err := boundOverActual(sub.forest(), p, sub.cat, single); err == nil {
		*bounds = append(*bounds, b)
	}
	n, err := replayOps(tr, req, req, p, ar, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	*appended = append(*appended, float64(n))
	return sameExecution(ar, want, single)
}

// opKind names an f-plan operator for its span, fops.<kind>.
func opKind(op plan.Op) string {
	switch op.(type) {
	case plan.GammaOp:
		return "gamma"
	case plan.SwapOp:
		return "swap"
	case plan.MergeOp:
		return "merge"
	case plan.AbsorbOp:
		return "absorb"
	case plan.SelectConstOp:
		return "select"
	case plan.RemoveOp:
		return "remove"
	case plan.RenameOp:
		return "rename"
	}
	return fmt.Sprintf("%T", op)
}

// replayOps applies the plan's operators one at a time to ar, as
// Plan.ExecuteParallel does, timing each as a fops.<kind> span. It
// returns the number of values the operators appended to ar's store.
func replayOps(tr *tracer, parent, req int64, p *plan.Plan, ar *fops.ARel, par int) (int, error) {
	if ar.IsEmpty() {
		ar.MakeEmpty()
	}
	ar.Par = par
	_, before, _ := ar.Store.MemStats()
	for _, op := range p.Ops {
		var err error
		tr.timed(parent, req, "fops."+opKind(op), func() { err = op.Apply(ar) })
		if err != nil {
			return 0, fmt.Errorf("replaying %s: %w", op, err)
		}
	}
	_, after, _ := ar.Store.MemStats()
	return after - before, nil
}

// factDigest digests the flat enumeration of a factorised result in
// f-tree order: two executions of one plan agree when their singleton
// counts and these digests agree.
func factDigest(ar *fops.ARel) (digest, error) {
	en, err := frep.NewStoreEnumerator(ar.Tree, ar.Store, ar.Roots, nil)
	if err != nil {
		return digest{}, err
	}
	d, err := newDigester(en.Schema(), &query.Query{})
	if err != nil {
		return digest{}, err
	}
	for en.Next() {
		if err := d.addValues(en.Tuple()); err != nil {
			return digest{}, err
		}
	}
	return d.sum(), nil
}

// sameExecution checks an operator-by-operator replay against the
// untraced execution's answer digest and singleton count.
func sameExecution(ar *fops.ARel, want digest, singletons int) error {
	got, err := factDigest(ar)
	if err != nil {
		return err
	}
	if err := sameDigest(got, want); err != nil {
		return fmt.Errorf("replay differs from the untraced call: %v", err)
	}
	if ar.Singletons() != singletons {
		return fmt.Errorf("replay built %d singletons, the untraced call %d", ar.Singletons(), singletons)
	}
	return nil
}

// boundOverActual is the paper's cost model against reality: the size
// bound of the plan's final f-tree over the singletons actually built.
func boundOverActual(start *ftree.Forest, p *plan.Plan, cat []ftree.CatalogRelation, singletons int) (float64, error) {
	final, err := plan.FinalTree(start, p)
	if err != nil {
		return 0, err
	}
	if singletons == 0 {
		return 0, fmt.Errorf("empty result")
	}
	return final.SizeBound(cat) / float64(singletons), nil
}
