package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/server"
)

// warmupMax caps a warm-up that never meets its condition; the run then
// proceeds and says so in its environment record.
const warmupMax = 60 * time.Second

// zipfS is the skew of page popularity: page k is drawn with weight
// (1+k)^-zipfS, so early pages are popular and the tail is long. 0.99 is
// YCSB's default Zipfian constant (Cooper et al., "Benchmarking Cloud
// Serving Systems with YCSB", SoCC 2010), taken from Gray et al.'s
// generator ("Quickly Generating Billion-Record Synthetic Databases",
// SIGMOD 1994). It has not been checked against any trace of fdb's own
// traffic; none exists.
const zipfS = 0.99

// zipf draws page numbers 0..n-1 with weight (1+k)^-s. Unlike
// rand.Zipf it accepts s <= 1, which a finite page range allows.
type zipf struct {
	rng *rand.Rand
	cdf []float64 // cumulative weights
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n)}
	t := 0.0
	for k := range z.cdf {
		t += math.Pow(float64(k+1), -s)
		z.cdf[k] = t
	}
	return z
}

func (z *zipf) next() int {
	k := sort.SearchFloat64s(z.cdf, z.rng.Float64()*z.cdf[len(z.cdf)-1])
	return min(k, len(z.cdf)-1)
}

// sqlRun is the state shared by the clients of the server workloads.
type sqlRun struct {
	s     *served
	reads []stmt // agg and aggord statements
	ord   []stmt // ord statements, streamed as NDJSON
	bases []stmt // orderings the page family paginates
	pages []int  // page count per base
	refs  map[string][]canonRow
	want  map[string]int // verified row count per statement id

	mu  sync.Mutex
	seq []timedRequest // recorded while recording is set
	rec atomic.Bool
}

type timedRequest struct {
	at time.Time
	request
}

// call is one request of a round.
type call struct {
	s      stmt
	ndjson bool
}

// round is one client's next batch of requests, in a seeded order: every
// statement the workload names once, as a TPC-H query stream runs each
// of its queries once in a permuted order (the throughput test of the
// TPC-H specification). That is every agg and aggord statement, every
// ord statement (as NDJSON), and one Zipf-drawn page of each ordering.
// Rounds keep the statement mix exact, so runs differ in order and page
// draws only.
func (r *sqlRun) round(rng *rand.Rand, zipfs []*zipf) []call {
	var out []call
	for _, s := range r.reads {
		out = append(out, call{s, false})
	}
	for _, s := range r.ord {
		out = append(out, call{s, true})
	}
	for b, base := range r.bases {
		out = append(out, call{pageStmt(base, zipfs[b].next()), false})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (r *sqlRun) zipfs(rng *rand.Rand) []*zipf {
	out := make([]*zipf, len(r.bases))
	for i, n := range r.pages {
		out[i] = newZipf(rng, zipfS, n)
	}
	return out
}

// do sends one statement and checks the reply: pages against the
// verified full answer, everything else by its verified row count.
func (r *sqlRun) do(ctx context.Context, s stmt, ndjson bool) (reply, error) {
	r.record(request{sql: s.sql, ndjson: ndjson})
	if s.base == "" {
		rp, err := r.s.query(ctx, s.sql, ndjson, nil)
		if err == nil && rp.rows != r.want[s.id] {
			err = wrongAnswer{fmt.Errorf("%s: %d rows, want %d", s.id, rp.rows, r.want[s.id])}
		}
		return rp, err
	}
	var dg *digester
	rp, err := r.s.query(ctx, s.sql, ndjson, func(cols []string) (*digester, error) {
		d, err := newDigester(cols, s.q)
		if d != nil {
			d.keep = pageSize
		}
		dg = d
		return d, err
	})
	if err != nil {
		return rp, err
	}
	if err := checkWindow(dg.kept, r.refs[s.base], r.want[s.base], s.q.Offset, s.q.Limit); err != nil {
		return rp, wrongAnswer{fmt.Errorf("%s: %w", s.id, err)}
	}
	return rp, nil
}

// verify answers each distinct statement once through the server and
// checks it against rdb; pages are checked against the verified full
// answer of their ordering, on a seeded sample that includes the first
// and last page.
func (r *sqlRun) verify(ctx context.Context, or *oracle, rep *report, seed int64) error {
	full := append(append([]stmt(nil), r.reads...), r.ord...)
	if len(r.bases) > 0 {
		full = append(full, r.bases...)
	}
	done := map[string]bool{}
	for i, s := range full {
		if done[s.id] {
			continue
		}
		done[s.id] = true
		var dg *digester
		rp, err := r.s.query(ctx, s.sql, i >= len(r.reads), func(cols []string) (*digester, error) {
			d, err := newDigester(cols, s.q)
			if d != nil {
				d.keep = keepRows
			}
			dg = d
			return d, err
		})
		if err != nil {
			return err
		}
		r.want[s.id] = rp.rows
		r.refs[s.id] = dg.kept
		want, err := or.want(s)
		if err != nil {
			return err
		}
		if err := sameDigest(dg.sum(), want); err != nil {
			rep.fail("%s disagrees with rdb: %v", s.id, err)
		}
	}
	if err := or.save(); err != nil {
		return err
	}
	if len(r.bases) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for b, base := range r.bases {
		n := (r.want[base.id] + pageSize - 1) / pageSize
		if n > keepRows/pageSize {
			return fmt.Errorf("%s has %d pages, more than the reference keeps", base.id, n)
		}
		r.pages = append(r.pages, n)
		ks := []int{0, n - 1, n}
		for i := 0; i < 6; i++ {
			ks = append(ks, rng.Intn(n))
		}
		for _, k := range ks {
			if _, err := r.do(ctx, pageStmt(r.bases[b], k), false); err != nil {
				rep.fail("%v", err)
			}
		}
	}
	return nil
}

// clients runs n closed-loop clients until stop reports true, each with
// its own seeded stream; it returns once every client has returned.
func (r *sqlRun) clients(n int, seed int64, stop func() bool, each func(s stmt, ndjson bool, start, end time.Time, rp reply, err error)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			zs := r.zipfs(rng)
			for !stop() {
				for _, c := range r.round(rng, zs) {
					if stop() {
						break
					}
					start := time.Now()
					rp, err := r.do(context.Background(), c.s, c.ndjson)
					each(c.s, c.ndjson, start, time.Now(), rp, err)
				}
			}
		}(c)
	}
	wg.Wait()
}

// paced runs one reader that sends a read every 1/readRate seconds
// until stop reports true: each read is due one interval after the one
// before was due, and goes at once if the reader is behind, so reads
// never overlap and their number per second stays fixed as long as the
// host keeps up. The statements come in rounds as for clients, from one
// seeded stream (n is not used).
func (r *sqlRun) paced(n int, seed int64, stop func() bool, each func(s stmt, ndjson bool, start, end time.Time, rp reply, err error)) {
	rng := rand.New(rand.NewSource(seed * 1000))
	zs := r.zipfs(rng)
	start := time.Now()
	var calls []call
	for i := 0; ; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / readRate)))
		if stop() {
			return
		}
		if len(calls) == 0 {
			calls = r.round(rng, zs)
		}
		c := calls[0]
		calls = calls[1:]
		t := time.Now()
		rp, err := r.do(context.Background(), c.s, c.ndjson)
		each(c.s, c.ndjson, t, time.Now(), rp, err)
	}
}

// liveAfterGC reads the heap marked live by the last collection.
func liveAfterGC() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// warmUp drives the workload untimed until ready reports a steady state,
// checked once a second, or warmupMax passes.
func (r *sqlRun) warmUp(n int, seed int64, ready func() bool) (time.Duration, bool) {
	start := time.Now()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.clients(n, seed+7919, stop.Load, func(stmt, bool, time.Time, time.Time, reply, error) {})
	}()
	steady := false
	for !steady && time.Since(start) < warmupMax {
		time.Sleep(time.Second)
		steady = ready()
	}
	stop.Store(true)
	<-done
	return time.Since(start), steady
}

// prefill sends pages in falling popularity, from n clients, until full
// reports true: the pages a Zipf stream touches first, without waiting
// for a random stream to draw enough distinct pages to fill the cache.
func (r *sqlRun) prefill(n int, full func() bool) {
	var order []stmt
	for k := 0; ; k++ {
		added := false
		for b, base := range r.bases {
			if k < r.pages[b] {
				order = append(order, pageStmt(base, k))
				added = true
			}
		}
		if !added {
			break
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) || full() {
					return
				}
				_, _ = r.do(context.Background(), order[i], false)
			}
		}()
	}
	wg.Wait()
}

// levelled reports whether the last three readings agree within 5%.
func levelled(xs []float64) bool {
	if len(xs) < 3 {
		return false
	}
	t := xs[len(xs)-3:]
	lo, hi := t[0], t[0]
	for _, x := range t {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi <= lo*1.05
}

func runServerSQL(o *options, rep *report) error {
	ctx := context.Background()
	data := generate(o)
	tmp, err := os.MkdirTemp(filepath.Join(o.dir, ".out"), "server-sql-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	n := runtime.NumCPU()

	// Set up the way fdbserver -data boots from a snapshot: save the
	// catalogue, load it without mmap, serve it.
	var setups setupTimes
	var loads []float64
	var s *served
	var loaded *engine.Catalog
	var db engine.DB
	for i := 0; i < setupRounds; i++ {
		var next *served
		var cat *engine.Catalog
		err := setups.time(func() error {
			path := filepath.Join(tmp, fmt.Sprintf("bench%d.fdbcat", i))
			if err := engine.SaveCatalogFile(path, "bench", engine.DB(data.DB())); err != nil {
				return err
			}
			t := time.Now()
			var err error
			if cat, err = engine.LoadCatalogFile(path, false); err != nil {
				return err
			}
			loads = append(loads, float64(time.Since(t))/1e6)
			srv, err := server.New(server.Config{Databases: map[string]fdb.Database{"bench": cat.DB}})
			if err != nil {
				return err
			}
			next, err = serve(srv, n)
			return err
		})
		if err != nil {
			return err
		}
		if s != nil {
			// A loaded catalogue registers its factorisations process-wide
			// until closed, so a superseded one would stay in the heap.
			s.close()
			if err := loaded.Close(); err != nil {
				return err
			}
		}
		s, loaded, db = next, cat, cat.DB
	}
	defer func() {
		s.close()
		_ = loaded.Close() // only read; the data directory is removed next
	}()
	setups.set(rep)
	rep.set("catalog.load_ms", median(loads))

	r := &sqlRun{s: s, reads: serverReads(), ord: serverOrd(), bases: pageBases(),
		refs: map[string][]canonRow{}, want: map[string]int{}}
	if err := r.verify(ctx, openOracle(o, data), rep, o.seed); err != nil {
		return err
	}
	runtime.GC()

	// Steady occupancy: the cache is full, or holds every statement
	// the workload can send.
	distinct := len(r.reads) + len(r.ord)
	for _, p := range r.pages {
		distinct += p
	}
	full := func() bool {
		pc := s.srv.Stats().Databases["bench"].PlanCache
		return pc.Size >= min(pc.Capacity, distinct)
	}
	start := time.Now()
	r.prefill(n, full)
	var lives []float64
	_, steady := r.warmUp(n, o.seed, func() bool {
		lives = append(lives, float64(liveAfterGC()))
		return full() && levelled(lives)
	})
	rep.Env["warmup"] = fmt.Sprintf("%.1f s: pages in popularity order until the plan cache was full, then the mix until the live heap was level (steady: %v)",
		time.Since(start).Seconds(), steady)

	return r.measure(ctx, o, rep, n, db, nil)
}

// measure runs the timed window and, in a traced run, the replay and
// the per-statement analysis. db is the served data; on write-mix it is
// nil, and wm, the writer and its monitors, runs alongside the reads.
func (r *sqlRun) measure(ctx context.Context, o *options, rep *report, n int, db engine.DB, wm *writeMix) error {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var rec recorder
	var transport []float64
	var tmu sync.Mutex
	before, alloc0 := readCounters(), allocBytes()
	cache0 := r.s.srv.Stats().Databases["bench"].PlanCache
	// Start the window on a fresh GC cycle, so every run sees its
	// collections at the same points of the window.
	runtime.GC()
	r.rec.Store(true)
	peak := startHeapPeak()
	cpu := startCPU()
	w := newWindow(o.seconds, o.trace)
	if wm != nil {
		wm.start(w, tr)
	}
	drive := r.clients
	if wm != nil {
		drive = r.paced
	}
	drive(n, o.seed, func() bool { return !w.open() }, func(s stmt, nd bool, start, end time.Time, rp reply, err error) {
		traced := w.traced(start)
		if traced {
			id := tr.newID()
			tr.add(id, 0, id, "http.query", start, end)
			tmu.Lock()
			transport = append(transport, float64(end.Sub(start))/1e6-rp.elapsedMs)
			tmu.Unlock()
		}
		if wm != nil {
			wm.noteRead()
		}
		if err != nil {
			rep.failedOp(err)
		}
		rec.add(sample{group: s.group(), family: s.family, ms: float64(end.Sub(start)) / 1e6,
			cpu: rp.cpuMs, ok: err == nil, traced: traced})
	})
	var writes []sample
	if wm != nil {
		writes = wm.stop()
	}
	heap := peak.end()
	r.rec.Store(false)
	after := readCounters()
	ss := rec.all()
	cache1 := r.s.srv.Stats().Databases["bench"].PlanCache

	rep.addAttempts(int64(len(ss)+len(writes)), failures(ss)+failures(writes))
	// Per read: the reads are the operations the figure is about. On
	// write-mix the writer's and compactor's allocations are counted and
	// the writes are not, two to each read at the fixed rates.
	rep.set("alloc_kb_per_op", float64(allocBytes()-alloc0)/1024/float64(len(ss)))
	cpu.end(rep, len(ss))
	setHeap(rep, heap)
	retained := retainedHeap()
	if wm != nil {
		var err error
		if retained, err = wm.retained(); err != nil {
			return err
		}
	}
	rep.set("heap_retained_mb", float64(retained)/(1<<20))
	fams := []string{famAgg, famAggOrd}
	if len(r.bases) > 0 {
		fams = families
	}
	setReadMetrics(rep, ss, w, fams)
	if hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses; hits+misses > 0 {
		rep.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	rep.set("engine.par_workers_per_query", float64(after.workersSince(before))/float64(len(ss)))
	if share, ok := after.seekShare(before); ok {
		rep.set("frep.seek_share", share)
	} else {
		rep.na("frep.seek_share", "not applicable: no OFFSET in this workload")
	}
	if wm != nil {
		wm.report(rep, writes)
	}
	if !o.trace {
		return nil
	}
	if x, ok := traceOverhead(ss); ok {
		rep.set("bench.trace_overhead", x)
	}
	rep.set("server.transport_ms", median(transport))

	// Replay the window's requests in-process, with the HTTP server
	// released so its plan cache no longer holds memory.
	seq := r.recorded()
	r.s.release()
	runtime.GC()
	dbNow := func() engine.DB { return db }
	if wm != nil {
		dbNow = wm.mut.View
	}
	rp := newReplayer(tr, dbNow)
	if wm != nil {
		rp.write = func(ctx context.Context) error { return wm.replayWrite(ctx, tr) }
	}
	replayed, err := replayReads(ctx, rp, seq, time.Duration(o.seconds*float64(time.Second)/2))
	if err != nil {
		return err
	}
	rep.Env["replay"] = fmt.Sprintf("%d of %d recorded requests replayed in-process", replayed, len(seq))
	setReplayMetrics(rep, rp, layerTimes(tr.all()))

	stmts := append(append([]stmt(nil), r.reads...), r.ord...)
	for _, b := range r.bases {
		stmts = append(stmts, pageStmt(b, 1))
	}
	analyseServed(ctx, tr, dbNow(), stmts, rep)
	setOpMetrics(rep, layerTimes(tr.all()))
	if wm == nil {
		notApplicable(rep, "server-sql has no writes",
			"engine.stale_read_share", "engine.apply_ms", "engine.compactions", "engine.compact_ms",
			"wal.records_per_sync", "wal.bytes_per_row", "bench.gen_lag_ms")
	}
	notApplicable(rep, "the rdb reference is timed on view-paper", "rdb.agg_ms", "rdb.aggord_ms",
		"rdb.ord_ms", "rdb.speedup.agg", "rdb.speedup.aggord", "rdb.speedup.ord")
	return writeSpans(o, tr, rep)
}

// record notes a request sent while the window records.
func (r *sqlRun) record(rq request) {
	if !r.rec.Load() {
		return
	}
	r.mu.Lock()
	r.seq = append(r.seq, timedRequest{time.Now(), rq})
	r.mu.Unlock()
}

// recorded returns the window's requests in the order they were sent.
func (r *sqlRun) recorded() []request {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(r.seq, func(i, j int) bool { return r.seq[i].at.Before(r.seq[j].at) })
	out := make([]request, len(r.seq))
	for i, t := range r.seq {
		out[i] = t.request
	}
	return out
}

func failures(ss []sample) int64 {
	var n int64
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}
