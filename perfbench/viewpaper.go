package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/fops"
	"github.com/factordb/fdb/internal/ftree"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/workload"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 15

// keepRows bounds the canonical rows kept from a full answer for the
// window checks of its LIMIT/OFFSET statements.
const keepRows = 1 << 16

// viewRun is the view-paper workload: Figure 3's queries on the arena
// views, one closed-loop goroutine.
type viewRun struct {
	eng    *engine.Engine
	r1, r3 *fops.ARel
	cat    []ftree.CatalogRelation
	stmts  []stmt
	want   map[string]int // verified row count per statement id
}

func (v *viewRun) view(s stmt) *fops.ARel {
	if s.q.Relations[0] == "R3" {
		return v.r3
	}
	return v.r1
}

// exec runs one statement to its last row, as a client of the engine
// would. When collect is not nil it is given the result's columns and
// the digester it returns is fed every row.
func (v *viewRun) exec(ctx context.Context, s stmt, tr *tracer, parent, req int64, collect func([]string) (*digester, error)) (int, error) {
	var res *engine.Result
	var err error
	tr.timed(parent, req, "engine.RunOnARel", func() {
		res, err = v.eng.RunOnARelContext(ctx, s.q, v.view(s), v.cat)
	})
	if err != nil {
		return 0, err
	}
	defer res.Close()
	var dg *digester
	if collect != nil {
		if dg, err = collect(res.Schema()); err != nil {
			return 0, err
		}
	}
	n := 0
	tr.timed(parent, req, "frep.enum", func() {
		var rows *engine.Rows
		if rows, err = res.Rows(ctx); err != nil {
			return
		}
		defer rows.Close()
		for rows.Next() {
			n++
			if dg != nil {
				if err = dg.addValues(rows.Tuple()); err != nil {
					return
				}
			}
		}
		err = rows.Err()
	})
	return n, err
}

func runViewPaper(o *options, rep *report) error {
	ctx := context.Background()
	data := generate(o)
	v := &viewRun{eng: engine.New(), cat: data.Catalog(), stmts: viewStatements(), want: map[string]int{}}

	var setups setupTimes
	for i := 0; i < setupRounds; i++ {
		err := setups.time(func() (err error) {
			if v.r1, err = data.FactorisedR1Arena(); err != nil {
				return err
			}
			v.r3, err = data.FactorisedR3Arena()
			return err
		})
		if err != nil {
			return err
		}
	}
	setups.set(rep)

	if err := v.verify(ctx, o, data, rep); err != nil {
		return err
	}
	warm := time.Now()
	for _, s := range v.stmts {
		if _, err := v.exec(ctx, s, nil, 0, 0, nil); err != nil {
			return err
		}
	}
	rep.Env["warmup"] = fmt.Sprintf("one pass over the %d statements, %.3f s", len(v.stmts), time.Since(warm).Seconds())
	runtime.GC()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(o.seed))
	var rec recorder
	var enumRows int64
	before, alloc0 := readCounters(), allocBytes()
	// The loop keeps to one OS thread, whose CPU clock then times each
	// query alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	peak := startHeapPeak()
	cpu := startCPU()
	w := newWindow(o.seconds, o.trace)
	order := append([]stmt(nil), v.stmts...)
	// Whole passes only, so every statement runs equally often and the
	// percentiles do not depend on where the window cuts a pass.
	for w.open() {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, s := range order {
			start, cpu0 := time.Now(), threadCPU()
			traced := w.traced(start)
			var t *tracer
			var req int64
			if traced {
				t, req = tr, tr.newID()
			}
			n, err := v.exec(ctx, s, t, req, req, nil)
			end, cpu1 := time.Now(), threadCPU()
			t.add(req, 0, req, "view.query", start, end)
			if err == nil && n != v.want[s.id] {
				err = wrongAnswer{fmt.Errorf("%s: %d rows, want %d", s.id, n, v.want[s.id])}
			}
			ok := err == nil
			if !ok {
				rep.failedOp(err)
			}
			if traced {
				enumRows += int64(n)
			}
			rec.add(sample{group: s.group(), family: s.family, ms: float64(end.Sub(start)) / 1e6,
				cpu: float64(cpu1-cpu0) / 1e6, ok: ok, traced: traced})
		}
	}
	heap := peak.end()
	w.end = time.Now()
	ss := rec.all()
	after := readCounters()
	rep.addAttempts(int64(len(ss)), failures(ss))
	rep.set("alloc_kb_per_op", float64(allocBytes()-alloc0)/1024/float64(len(ss)))
	cpu.end(rep, len(ss))
	setHeap(rep, heap)
	rep.set("heap_retained_mb", float64(retainedHeap())/(1<<20))
	setReadMetrics(rep, ss, w, families)
	rep.set("engine.par_workers_per_query", float64(after.workersSince(before))/float64(len(ss)))
	if !o.trace {
		return nil
	}
	if r, ok := traceOverhead(ss); ok {
		rep.set("bench.trace_overhead", r)
	}
	v.analyse(ctx, tr, rep)
	lt := layerTimes(tr.all())
	rep.set("engine.exec_ms", median(lt["engine.RunOnARel"]))
	rep.set("frep.enum_ms", median(lt["frep.enum"]))
	rep.set("frep.rows_per_s", float64(enumRows)/(sum(lt["frep.enum"])/1000))
	setOpMetrics(rep, lt)
	if err := v.timeRDB(data, o.seed, ss, rep); err != nil {
		return err
	}
	notApplicable(rep, "view-paper has no SQL, plan cache, server, base build, OFFSET or write path",
		"plan.prepare_ms", "sql.parse_us", "cache.hit_ratio", "engine.base_build_ms",
		"engine.stale_read_share", "engine.plan_snapshot_mb", "engine.apply_ms",
		"engine.compactions", "engine.compact_ms", "frep.seek_share", "server.encode_ms",
		"server.transport_ms", "wal.records_per_sync", "wal.bytes_per_row",
		"catalog.load_ms", "bench.gen_lag_ms")
	return writeSpans(o, tr, rep)
}

// verify answers every statement once and checks it against rdb.
func (v *viewRun) verify(ctx context.Context, o *options, data *workload.Dataset, rep *report) error {
	or := openOracle(o, data)
	refs := map[string][]canonRow{}
	for _, s := range v.stmts {
		var dg *digester
		n, err := v.exec(ctx, s, nil, 0, 0, func(cols []string) (*digester, error) {
			d, err := newDigester(cols, s.q)
			if d != nil {
				d.keep = keepRows
			}
			dg = d
			return d, err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		v.want[s.id] = n
		if s.base != "" {
			if err := checkWindow(dg.kept, refs[s.base], v.want[s.base], s.q.Offset, s.q.Limit); err != nil {
				rep.fail("%s: %v", s.id, err)
			}
			continue
		}
		refs[s.id] = dg.kept
		want, err := or.want(s)
		if err != nil {
			return err
		}
		if err := sameDigest(dg.sum(), want); err != nil {
			rep.fail("%s disagrees with rdb: %v", s.id, err)
		}
	}
	return or.save()
}

// analyse is the traced run's operator analysis on the arena views:
// each statement runs through RunOnARelContext and is replayed on a
// fresh snapshot of its view.
func (v *viewRun) analyse(ctx context.Context, tr *tracer, rep *report) {
	analyse(tr, rep, v.eng.PartialAgg, v.stmts, func(s stmt) (subject, error) {
		return subject{
			cat:    v.cat,
			forest: func() *ftree.Forest { return v.view(s).Snapshot().Forest() },
			exec:   func() (*engine.Result, error) { return v.eng.RunOnARelContext(ctx, s.q, v.view(s), v.cat) },
			start:  func() (*fops.ARel, error) { return v.view(s).Snapshot(), nil },
		}, nil
	})
}

// rdbBudget bounds the rdb timing of each family in a traced run.
const rdbBudget = 2 * time.Second

// timeRDB times rdb on the flat views, the paper's relational
// reference: per family, the family's queries in a seeded order until
// the budget is spent, each with sort and with hash grouping, keeping
// the faster. The speedup compares with the median fdb latency of the
// same queries in the timed window.
func (v *viewRun) timeRDB(data *workload.Dataset, seed int64, ss []sample, rep *report) error {
	db, err := flatViews(data)
	if err != nil {
		return err
	}
	fdbMs := map[string][]float64{}
	for _, s := range ss {
		if s.ok && !s.traced {
			fdbMs[s.group] = append(fdbMs[s.group], s.ms)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, fam := range []string{famAgg, famAggOrd, famOrd} {
		var fs []stmt
		for _, s := range v.stmts {
			if s.family == fam {
				fs = append(fs, s)
			}
		}
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		var rdbT, fdbT []float64
		start := time.Now()
		for _, s := range fs {
			if len(rdbT) > 0 && time.Since(start) > rdbBudget {
				break
			}
			best := 0.0
			for _, g := range []rdb.GroupMode{rdb.GroupSort, rdb.GroupHash} {
				t := time.Now()
				if _, err := (&rdb.Engine{Grouping: g}).Run(s.q, db); err != nil {
					return fmt.Errorf("rdb %s: %w", s.id, err)
				}
				if ms := float64(time.Since(t)) / 1e6; best == 0 || ms < best {
					best = ms
				}
				if len(s.q.GroupBy) == 0 && len(s.q.Aggregates) == 0 {
					break // no grouping: the modes are the same plan
				}
			}
			rdbT = append(rdbT, best)
			fdbT = append(fdbT, median(fdbMs[s.id]))
		}
		rep.set("rdb."+fam+"_ms", median(rdbT))
		rep.set("rdb.speedup."+fam, median(rdbT)/median(fdbT))
	}
	return nil
}

// setOpMetrics sets the operator metrics from the replay spans: the mean
// time of one application of each operator kind.
func setOpMetrics(rep *report, lt map[string][]float64) {
	for _, kind := range []string{"gamma", "swap", "merge", "absorb", "select", "remove"} {
		name := "fops." + kind + "_ms"
		if xs := lt["fops."+kind]; len(xs) > 0 {
			rep.set(name, mean(xs))
		} else {
			rep.na(name, "not applicable: no "+kind+" operator in this workload's plans")
		}
	}
}

func invalidOps(rep *report, why string) {
	for _, n := range []string{"fops.gamma_ms", "fops.swap_ms", "fops.merge_ms", "fops.absorb_ms",
		"fops.select_ms", "fops.remove_ms", "fops.appended_values_per_query",
		"plan.bound_over_actual", "frep.kernel_share"} {
		rep.Missing[n] = "invalid: " + why
	}
}

func notApplicable(rep *report, why string, names ...string) {
	for _, n := range names {
		rep.na(n, "not applicable: "+why)
	}
}

func writeSpans(o *options, tr *tracer, rep *report) error {
	rep.Spans = outPath(o, "spans", "jsonl")
	return tr.write(rep.Spans)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
