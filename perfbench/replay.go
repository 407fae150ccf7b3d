package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/frep"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/server/cache"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
)

// request is one recorded request of a timed window.
type request struct {
	sql    string
	ndjson bool
	write  bool
}

// snapshotProbes is how many plan-cache misses of a replay measure the
// heap a newly cached plan retains (each costs two full GCs).
const snapshotProbes = 6

// replayer re-issues recorded reads in-process through the calls the
// server's /query handler makes, in the handler's order, timing each as
// a span: sql.Normalize, the plan-cache lookup, sql.Parse and
// Engine.Prepare on a miss, ExecSharedContext, the Rows/Next loop, and
// the response encoding. Its engine and plan cache have the server's
// defaults.
type replayer struct {
	tr    *tracer
	eng   *engine.Engine
	plans *cache.LRU
	db    func() engine.DB
	// seen records the relations each cached plan last executed on, to
	// tell a plan's first execution on new data (a base build) from a
	// warm one, as the engine's stale-plan guard does.
	seen map[string][]*relation.Relation
	// write, when set, replays a recorded write.
	write     func(context.Context) error
	probes    int
	snapMB    []float64
	baseBuild []float64
	rows      int64
}

func newReplayer(tr *tracer, db func() engine.DB) *replayer {
	return &replayer{tr: tr, eng: engine.New(), plans: cache.New(256), db: db,
		seen: map[string][]*relation.Relation{}, probes: snapshotProbes}
}

func relationsOf(q *query.Query, db engine.DB) []*relation.Relation {
	out := make([]*relation.Relation, len(q.Relations))
	for i, n := range q.Relations {
		out[i] = db[n]
	}
	return out
}

func sameRelations(a, b []*relation.Relation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (r *replayer) read(ctx context.Context, rq request) error {
	tr := r.tr
	req := tr.newID()
	start := time.Now()
	var key string
	tr.timed(req, req, "sql.Normalize", func() { key = sql.Normalize(rq.sql) })
	var v any
	var hit bool
	tr.timed(req, req, "cache.lookup", func() { v, hit = r.plans.Get(key) })
	db := r.db()
	probe := !hit && r.probes > 0
	var live0 uint64
	if probe {
		live0 = liveHeap()
	}
	var p *engine.Prepared
	var err error
	if hit {
		p = v.(*engine.Prepared)
	} else {
		var q *query.Query
		tr.timed(req, req, "sql.Parse", func() { q, err = sql.Parse(rq.sql) })
		if err != nil {
			return err
		}
		tr.timed(req, req, "engine.Prepare", func() { p, err = r.eng.Prepare(q, db) })
		if err != nil {
			return err
		}
		r.plans.Put(key, p)
	}
	rels := relationsOf(p.Query, db)
	var res *engine.Result
	if !sameRelations(r.seen[key], rels) {
		// First execution on this data builds the plan's base snapshot;
		// a second, warm execution isolates the build's cost.
		r.seen[key] = rels
		var cold time.Duration
		t := time.Now()
		tr.timed(req, req, "engine.ExecShared.build", func() { res, err = p.ExecSharedContext(ctx, db) })
		cold = time.Since(t)
		if err != nil {
			return err
		}
		res.Close()
		if probe {
			r.probes--
			r.snapMB = append(r.snapMB, float64(int64(liveHeap())-int64(live0))/(1<<20))
		}
		t = time.Now()
		tr.timed(req, req, "engine.ExecShared", func() { res, err = p.ExecSharedContext(ctx, db) })
		r.baseBuild = append(r.baseBuild, float64(cold-time.Since(t))/1e6)
	} else {
		tr.timed(req, req, "engine.ExecShared", func() { res, err = p.ExecSharedContext(ctx, db) })
	}
	if err != nil {
		return err
	}
	defer res.Close()
	// The enumeration span copies each tuple's values only; converting
	// them to Go values belongs to the encoding, as in the handler.
	var vals []values.Value
	n := 0
	tr.timed(req, req, "frep.enum", func() {
		var rows *engine.Rows
		if rows, err = res.Rows(ctx); err != nil {
			return
		}
		defer rows.Close()
		for rows.Next() {
			vals = append(vals, rows.Tuple()...)
			n++
		}
		err = rows.Err()
	})
	if err != nil {
		return err
	}
	r.rows += int64(n)
	tr.timed(req, req, "server.encode", func() { err = encodeLikeHandler(res.Schema(), vals, n, rq.ndjson) })
	tr.add(req, 0, req, "replay.query", start, time.Now())
	return err
}

// encodeLikeHandler encodes n rows of flattened values as the /query
// handler does: the buffered path converts every row into Go values and
// encodes one JSON body; the NDJSON path encodes a header, one line per
// row from a reused row buffer, and a trailer.
func encodeLikeHandler(cols []string, vals []values.Value, n int, ndjson bool) error {
	w := 0
	if n > 0 {
		w = len(vals) / n
	}
	enc := json.NewEncoder(io.Discard)
	if !ndjson {
		rows := make([][]any, n)
		for i := range rows {
			row := make([]any, w)
			for j, v := range vals[i*w : (i+1)*w] {
				row[j] = engine.GoValue(v)
			}
			rows[i] = row
		}
		return enc.Encode(struct {
			Columns  []string `json:"columns"`
			Rows     [][]any  `json:"rows"`
			RowCount int      `json:"rowCount"`
		}{cols, rows, n})
	}
	if err := enc.Encode(map[string]any{"columns": cols}); err != nil {
		return err
	}
	row := make([]any, w)
	for i := 0; i < n; i++ {
		for j, v := range vals[i*w : (i+1)*w] {
			row[j] = engine.GoValue(v)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{"rowCount": n})
}

// liveHeap is the heap still reachable after two collections (the
// second empties the sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return liveAfterGC()
}

// replayReads replays the recorded requests until the sequence or the time
// budget runs out, returning how many it replayed.
func replayReads(ctx context.Context, r *replayer, seq []request, budget time.Duration) (int, error) {
	deadline := time.Now().Add(budget)
	n := 0
	for _, rq := range seq {
		if time.Now().After(deadline) {
			break
		}
		var err error
		switch {
		case !rq.write:
			err = r.read(ctx, rq)
		case r.write != nil:
			err = r.write(ctx)
		}
		if err != nil {
			return n, fmt.Errorf("replaying %q: %w", rq.sql, err)
		}
		n++
	}
	return n, nil
}

// setReplayMetrics derives the server-path layer metrics from a replay.
func setReplayMetrics(rep *report, r *replayer, lt map[string][]float64) {
	if xs := lt["engine.Prepare"]; len(xs) > 0 {
		rep.set("plan.prepare_ms", median(xs))
		rep.set("sql.parse_us", median(lt["sql.Parse"])*1000)
	} else {
		rep.na("plan.prepare_ms", "invalid: no plan-cache miss in the replay")
		rep.na("sql.parse_us", "invalid: no plan-cache miss in the replay")
	}
	rep.set("engine.exec_ms", median(lt["engine.ExecShared"]))
	if len(r.baseBuild) > 0 {
		rep.set("engine.base_build_ms", median(r.baseBuild))
	}
	if len(r.snapMB) > 0 {
		rep.set("engine.plan_snapshot_mb", median(r.snapMB))
	}
	rep.set("frep.enum_ms", median(lt["frep.enum"]))
	if t := sum(lt["frep.enum"]); t > 0 {
		rep.set("frep.rows_per_s", float64(r.rows)/(t/1000))
	}
	rep.set("server.encode_ms", median(lt["server.encode"]))
}

// analyseServed is analyse on the server path: each statement is
// prepared as the server prepares it, executed through
// ExecSharedContext, and replayed on a freshly built base of the same
// relations in the prepared path orders.
func analyseServed(ctx context.Context, tr *tracer, db engine.DB, stmts []stmt, rep *report) {
	eng := engine.New()
	analyse(tr, rep, eng.PartialAgg, stmts, func(s stmt) (subject, error) {
		p, err := eng.Prepare(s.q, db)
		if err != nil {
			return subject{}, err
		}
		var cat []ftree.CatalogRelation
		for _, n := range s.q.Relations {
			cat = append(cat, ftree.CatalogRelation{Name: n, Attrs: db[n].Attrs, Size: db[n].Cardinality()})
		}
		return subject{
			cat:    cat,
			forest: func() *ftree.Forest { return pathForest(p) },
			exec:   func() (*engine.Result, error) { return p.ExecSharedContext(ctx, db) },
			start: func() (*fops.ARel, error) {
				st := frep.NewStore()
				var roots []frep.NodeID
				for i, n := range s.q.Relations {
					sub := ftree.New()
					sub.NewRelationPath(p.Orders[i]...)
					rs, err := frep.BuildStoreUnchecked(st, db[n], sub)
					if err != nil {
						return nil, err
					}
					roots = append(roots, rs[0])
				}
				if err := st.BuildRanks(); err != nil {
					return nil, err
				}
				st.BuildCols()
				return &fops.ARel{Tree: pathForest(p), Store: st, Roots: roots}, nil
			},
		}, nil
	})
}

// pathForest is the prepared plan's starting forest: one linear path per
// relation in the chosen attribute order.
func pathForest(p *engine.Prepared) *ftree.Forest {
	f := ftree.New()
	for _, o := range p.Orders {
		f.NewRelationPath(o...)
	}
	return f
}
