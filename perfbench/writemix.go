package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/server"
	"github.com/factordb/fdb/internal/sql"
)

const (
	// writeRate is the open-loop writer's fixed rate in writes per second.
	writeRate = 20
	// readRate is the paced reader's rate in reads per second, about two
	// thirds of what one closed-loop reader manages on two cores. A fixed
	// rate keeps the number of writes per read, and with it the work of
	// a read, the same however fast the host runs.
	readRate = 10
	// danglingBase numbers the packages of inserted Orders rows. No
	// Packages row carries them, so the join drops them and every read
	// keeps its verified row count whatever generation it sees.
	danglingBase = 1_000_000
	// compactWALBytes and compactEvery make the background compactor
	// fold the WAL every few seconds at writeRate.
	compactWALBytes = 4 << 10
	compactEvery    = 250 * time.Millisecond
)

// writeMix is the writer, and the monitors of the write path, of the
// write-mix workload.
type writeMix struct {
	mut      *engine.MutableCatalog
	s        *served
	rng      *rand.Rand // the writer's; used only by the writer goroutine
	scale    int
	items    int
	nextPkg  int
	interval time.Duration

	mu    sync.Mutex
	live  []insertedPkg // acknowledged inserts not yet deleted
	win   *window
	tr    *tracer
	wrote []sample
	errs  []error
	lags  []float64
	apply []float64

	lastGen    atomic.Uint64
	reads      atomic.Int64
	staleReads atomic.Int64

	r        *sqlRun // records the writes of the window for the replay
	stopCh   chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
	// monitor state, owned by the monitor goroutine until stop
	compactions0 int64
	compactMs    []float64
	walRecords   int64
	walSyncs     int64
	walBytes     int64
	walRows      int64
}

type insertedPkg struct{ pkg, rows int }

// write is one generated DML statement and the rows it must affect.
type write struct {
	sql        string
	kind       string
	minN, maxN int64
	pkg        insertedPkg // for inserts
}

// next generates the next write, each of the three kinds equally likely:
// an insert of 1–16 Orders rows under a fresh package, a delete of an
// acknowledged insert's package (an insert when none is left), or an
// upsert of an Items price. The kinds get no weights of their own, and
// equal insert and delete rates keep Orders from growing through a run:
// it wanders by at most a few hundred rows, against about 32k.
func (wm *writeMix) next() write {
	switch wm.rng.Intn(3) {
	case 1:
		wm.mu.Lock()
		n := len(wm.live)
		var p insertedPkg
		if n > 0 {
			i := wm.rng.Intn(n)
			p = wm.live[i]
			wm.live[i] = wm.live[n-1]
			wm.live = wm.live[:n-1]
		}
		wm.mu.Unlock()
		if n > 0 {
			return write{sql: fmt.Sprintf("DELETE FROM Orders WHERE package = %d", p.pkg), kind: "delete",
				minN: int64(p.rows), maxN: int64(p.rows)}
		}
	case 2:
		return write{sql: fmt.Sprintf("UPSERT INTO Items VALUES (%d, %d)", wm.rng.Intn(wm.items), 1+wm.rng.Intn(20)),
			kind: "upsert", minN: 2, maxN: 2} // the old row out, the new one in
	}
	k := 1 + wm.rng.Intn(16)
	pkg := danglingBase + wm.nextPkg
	wm.nextPkg++
	var b strings.Builder
	b.WriteString("INSERT INTO Orders VALUES ")
	for i, c := range wm.rng.Perm(100 * wm.scale)[:k] {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", c, wm.rng.Intn(800*wm.scale), pkg)
	}
	return write{sql: b.String(), kind: "insert", minN: int64(k), maxN: int64(k), pkg: insertedPkg{pkg, k}}
}

// run starts the open-loop writer and the write-path monitor; they run
// until stop. Writes are due every interval from now on.
func (wm *writeMix) run(traced bool) {
	wm.stopCh = make(chan struct{})
	wm.done.Add(2)
	go wm.writer()
	poll := 20 * time.Millisecond
	if traced {
		poll = 2 * time.Millisecond
	}
	go wm.monitor(poll)
}

func (wm *writeMix) writer() {
	defer wm.done.Done()
	var inflight sync.WaitGroup
	defer inflight.Wait()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * wm.interval)
		t := time.NewTimer(time.Until(due))
		select {
		case <-wm.stopCh:
			t.Stop()
			return
		case <-t.C:
		}
		wr := wm.next()
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			sent := time.Now()
			wm.r.record(request{sql: wr.sql, write: true})
			rp, err := wm.s.exec(context.Background(), wr.sql)
			end := time.Now()
			if err == nil && (rp.affected < wr.minN || rp.affected > wr.maxN) {
				err = wrongAnswer{fmt.Errorf("%s affected %d rows, want %d..%d", wr.kind, rp.affected, wr.minN, wr.maxN)}
			}
			wm.mu.Lock()
			defer wm.mu.Unlock()
			if err == nil && wr.kind == "insert" {
				wm.live = append(wm.live, wr.pkg)
			}
			w := wm.win
			if w == nil || due.Before(w.start) || !due.Before(w.end) {
				return
			}
			traced := w.traced(due)
			if traced {
				id := wm.tr.newID()
				wm.tr.add(id, 0, id, "http.exec", due, end)
			}
			wm.lags = append(wm.lags, float64(sent.Sub(due))/1e6)
			if err == nil {
				wm.apply = append(wm.apply, rp.elapsedMs)
			}
			if err != nil {
				wm.errs = append(wm.errs, err)
			}
			wm.wrote = append(wm.wrote, sample{group: wr.kind, family: "write", ms: float64(end.Sub(due)) / 1e6,
				cpu: rp.cpuMs, ok: err == nil, traced: traced})
		}()
	}
}

// monitor polls the catalogue's write-path gauges: compaction spans and
// the WAL's records, syncs, bytes and rows per segment.
func (wm *writeMix) monitor(poll time.Duration) {
	defer wm.done.Done()
	t := time.NewTicker(poll)
	defer t.Stop()
	var prev engine.MutableStats
	var compactStart time.Time
	var rows0 int64
	first := true
	for {
		select {
		case <-wm.stopCh:
			wm.foldSegment(prev, rows0)
			return
		case <-t.C:
		}
		st := wm.mut.Stats()
		rows := st.InsertRows + st.DeleteRows + st.UpsertRows
		if first {
			prev, rows0, first = st, rows, false
			continue
		}
		if st.Compacting && !prev.Compacting {
			compactStart = time.Now()
		}
		if !st.Compacting && prev.Compacting && !compactStart.IsZero() {
			wm.mu.Lock()
			if wm.win != nil {
				wm.compactMs = append(wm.compactMs, float64(time.Since(compactStart))/1e6)
			}
			wm.mu.Unlock()
		}
		if st.WALEpoch != prev.WALEpoch {
			wm.foldSegment(prev, rows0)
			rows0 = prev.InsertRows + prev.DeleteRows + prev.UpsertRows
		}
		prev = st
	}
}

// foldSegment adds a WAL segment's last readings to the totals.
func (wm *writeMix) foldSegment(st engine.MutableStats, rows0 int64) {
	wm.mu.Lock()
	defer wm.mu.Unlock()
	if wm.win == nil {
		return
	}
	wm.walRecords += st.WALRecords
	wm.walSyncs += st.WALSyncs
	wm.walBytes += st.WALBytes
	wm.walRows += st.InsertRows + st.DeleteRows + st.UpsertRows - rows0
}

// start opens the timed window for the writer's samples.
func (wm *writeMix) start(w window, tr *tracer) {
	wm.mu.Lock()
	defer wm.mu.Unlock()
	wm.win, wm.tr = &w, tr
	wm.compactions0 = wm.mut.Stats().Compactions
	wm.lastGen.Store(wm.mut.Generation())
}

// noteRead counts a completed read and whether the catalogue's
// generation changed since the previous one.
func (wm *writeMix) noteRead() {
	g := wm.mut.Generation()
	wm.reads.Add(1)
	if wm.lastGen.Swap(g) != g {
		wm.staleReads.Add(1)
	}
}

// stop stops the writer and monitor, waits for in-flight writes, and
// returns the window's write samples.
func (wm *writeMix) stop() []sample {
	wm.stopOnce.Do(func() { close(wm.stopCh) })
	wm.done.Wait()
	wm.mu.Lock()
	defer wm.mu.Unlock()
	return wm.wrote
}

// retained is retainedHeap once the write path has settled into the
// same state in every run: the writer has stopped, a last compaction
// folds the remaining WAL into the snapshot, and every read statement
// runs once more, so that each cached plan holds a base of the final
// generation. Without that the figure followed whatever deltas and
// stale bases the window happened to end with: 47-101 MiB over runs of
// the same code.
func (wm *writeMix) retained() (uint64, error) {
	ctx := context.Background()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		err := wm.mut.Compact(ctx)
		if errors.Is(err, engine.ErrCompactionRunning) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if err != nil {
			return 0, err
		}
		st := wm.mut.Stats()
		for _, s := range wm.r.reads {
			if _, err := wm.r.do(ctx, s, false); err != nil {
				return 0, err
			}
		}
		b := retainedHeap()
		if now := wm.mut.Stats(); !now.Compacting && now.Compactions == st.Compactions {
			return b, nil
		}
	}
	return 0, errors.New("the write path did not settle in 10 s")
}

func (wm *writeMix) report(rep *report, writes []sample) {
	if xs := latencies(writes, func(s sample) bool { return !s.traced }); len(xs) > 0 {
		rep.set("write_p50_ms", median(xs))
		rep.set("write_p95_ms", quantile(xs, 0.95))
	}
	wm.mu.Lock()
	defer wm.mu.Unlock()
	for _, err := range wm.errs {
		rep.failedOp(err)
	}
	rep.set("bench.gen_lag_ms", quantile(wm.lags, 0.95))
	rep.set("engine.apply_ms", median(wm.apply))
	rep.set("engine.compactions", float64(wm.mut.Stats().Compactions-wm.compactions0))
	if len(wm.compactMs) > 0 {
		rep.set("engine.compact_ms", median(wm.compactMs))
	} else {
		rep.na("engine.compact_ms", "invalid: no compaction completed in the window")
	}
	if wm.walSyncs > 0 {
		rep.set("wal.records_per_sync", float64(wm.walRecords)/float64(wm.walSyncs))
	}
	if wm.walRows > 0 {
		rep.set("wal.bytes_per_row", float64(wm.walBytes)/float64(wm.walRows))
	}
	if n := wm.reads.Load(); n > 0 {
		rep.set("engine.stale_read_share", float64(wm.staleReads.Load())/float64(n))
	}
}

func runWriteMix(o *options, rep *report) error {
	ctx := context.Background()
	data := generate(o)
	tmp, err := os.MkdirTemp(filepath.Join(o.dir, ".out"), "write-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rep.Env["data_fs"] = fsType(tmp)
	rep.Env["flush"] = "fsync per WAL group commit (as shipped)"
	rep.Env["compaction"] = fmt.Sprintf("auto: WAL > %d bytes, checked every %v", compactWALBytes, compactEvery)

	// Set up a mutable catalogue served the way fdbserver -mutable
	// serves one, with auto-compaction.
	var setups setupTimes
	var mut *engine.MutableCatalog
	var s *served
	for i := 0; i < setupRounds; i++ {
		var m *engine.MutableCatalog
		var next *served
		err := setups.time(func() (err error) {
			if m, err = engine.CreateMutable(filepath.Join(tmp, fmt.Sprint(i)), "bench", engine.DB(data.DB())); err != nil {
				return err
			}
			srv, err := server.New(server.Config{Mutables: map[string]*fdb.MutableCatalog{"bench": m}})
			if err != nil {
				return err
			}
			if next, err = serve(srv, 2); err != nil {
				return err
			}
			return m.StartAutoCompact(engine.AutoCompactConfig{Interval: compactEvery, MaxWALBytes: compactWALBytes})
		})
		if err != nil {
			return err
		}
		if s != nil {
			s.close()
			if err := mut.Close(); err != nil {
				return err
			}
		}
		s, mut = next, m
	}
	defer func() {
		s.close()
		_ = mut.Close() // the data directory is removed next
	}()
	setups.set(rep)

	r := &sqlRun{s: s, reads: serverReads(), refs: map[string][]canonRow{}, want: map[string]int{}}
	if err := r.verify(ctx, openOracle(o, data), rep, o.seed); err != nil {
		return err
	}
	runtime.GC()

	wm := &writeMix{mut: mut, s: s, r: r, rng: rand.New(rand.NewSource(o.seed)), scale: o.scale,
		items: data.Items.Cardinality(), interval: time.Second / writeRate}
	wm.run(o.trace)
	defer wm.stop()
	notApplicable(rep, "write-mix builds a mutable catalogue, it loads none", "catalog.load_ms")
	took, steady := r.warmUp(1, o.seed, func() bool { return mut.Stats().Compactions > 0 })
	rep.Env["warmup"] = fmt.Sprintf("%.1f s until the first compaction finished (steady: %v)", took.Seconds(), steady)
	return r.measure(ctx, o, rep, 1, nil, wm)
}

// replayWrite generates the next write and applies it in-process the way
// the /exec handler does. The recorded writes cannot be re-applied as
// they were (their rows are already in), so the replay issues the
// writer's next write of the same stream instead.
func (wm *writeMix) replayWrite(ctx context.Context, tr *tracer) error {
	wr := wm.next()
	if err := applyLike(ctx, tr, wm.mut, wr.sql); err != nil {
		return err
	}
	if wr.kind == "insert" {
		wm.mu.Lock()
		wm.live = append(wm.live, wr.pkg)
		wm.mu.Unlock()
	}
	return nil
}

// applyLike applies a write in-process the way the /exec handler does.
func applyLike(ctx context.Context, tr *tracer, mut *engine.MutableCatalog, sqlText string) error {
	req := tr.newID()
	start := time.Now()
	var err error
	var stmt any
	tr.timed(req, req, "sql.ParseStatement", func() { stmt, err = sql.ParseStatement(sqlText) })
	if err != nil {
		return err
	}
	m, ok := stmt.(*fdb.Mutation)
	if !ok {
		return fmt.Errorf("%q is not a write", sqlText)
	}
	tr.timed(req, req, "engine.Apply", func() { _, err = mut.Apply(ctx, m) })
	tr.add(req, 0, req, "replay.exec", start, time.Now())
	return err
}
