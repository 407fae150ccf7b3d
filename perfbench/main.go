// Command perfbench is fdb's benchmark: it runs one named workload at
// scale 8 against the unmodified program, checks every answer against
// the rdb baseline engine, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics of a traced run — ending with one JSON
// line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source; see perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	name, unit string
	layer      bool // per-layer (traced run) rather than end-to-end
	listed     bool // named in BENCHMARK.json, so printed in every run's JSON line
}

// metricTable lists every metric in report order. A run prints the
// listed metrics of its kind in its JSON line: end-to-end with -trace 0,
// per-layer with -trace 1. The listed ones are those every workload
// has; the rest are printed in the report lines and the report file.
var metricTable = []metricDef{
	{"setup_s", "s", false, true},
	{"cpu_ms_per_query", "ms", false, true},
	{"query_cpu_p50_ms", "ms", false, true},
	{"query_cpu_p95_ms", "ms", false, true},
	{"agg_cpu_ms", "ms", false, true},
	{"aggord_cpu_ms", "ms", false, true},
	{"ord_cpu_ms", "ms", false, false},
	{"page_cpu_ms", "ms", false, false},
	{"process_cpu_ms_per_query", "ms", false, false},
	{"host_calib_ms", "ms", false, false},
	{"host_cpu_scale", "ratio", false, false},
	{"setup_wall_s", "s", false, false},
	{"qps", "queries/s", false, false},
	{"query_p50_ms", "ms", false, false},
	{"query_p95_ms", "ms", false, false},
	{"agg_p50_ms", "ms", false, false},
	{"aggord_p50_ms", "ms", false, false},
	{"ord_p50_ms", "ms", false, false},
	{"page_p50_ms", "ms", false, false},
	{"write_p50_ms", "ms", false, false},
	{"write_p95_ms", "ms", false, false},
	{"alloc_kb_per_op", "KiB", false, true},
	{"heap_retained_mb", "MiB", false, true},
	{"heap_peak_mb", "MiB", false, false},
	{"heap_max_mb", "MiB", false, false},
	{"failed_share", "ratio", false, false},

	{"plan.plan_ms", "ms", true, true},
	{"plan.prepare_ms", "ms", true, false},
	{"sql.parse_us", "us", true, false},
	{"plan.bound_over_actual", "ratio", true, true},
	{"cache.hit_ratio", "ratio", true, false},
	{"engine.exec_ms", "ms", true, true},
	{"engine.base_build_ms", "ms", true, false},
	{"engine.stale_read_share", "ratio", true, false},
	{"engine.plan_snapshot_mb", "MiB", true, false},
	{"engine.par_workers_per_query", "count", true, false},
	{"engine.apply_ms", "ms", true, false},
	{"engine.compactions", "count", true, false},
	{"engine.compact_ms", "ms", true, false},
	{"fops.gamma_ms", "ms", true, true},
	{"fops.swap_ms", "ms", true, true},
	{"fops.merge_ms", "ms", true, false},
	{"fops.absorb_ms", "ms", true, false},
	{"fops.select_ms", "ms", true, false},
	{"fops.remove_ms", "ms", true, false},
	{"fops.appended_values_per_query", "count", true, true},
	{"frep.enum_ms", "ms", true, true},
	{"frep.rows_per_s", "1/s", true, true},
	{"frep.seek_share", "ratio", true, false},
	{"frep.kernel_share", "ratio", true, false},
	{"server.encode_ms", "ms", true, false},
	{"server.transport_ms", "ms", true, false},
	{"wal.records_per_sync", "count", true, false},
	{"wal.bytes_per_row", "B", true, false},
	{"catalog.load_ms", "ms", true, false},
	{"rdb.agg_ms", "ms", true, false},
	{"rdb.aggord_ms", "ms", true, false},
	{"rdb.ord_ms", "ms", true, false},
	{"rdb.speedup.agg", "ratio", true, false},
	{"rdb.speedup.aggord", "ratio", true, false},
	{"rdb.speedup.ord", "ratio", true, false},
	{"bench.gen_lag_ms", "ms", true, false},
	{"bench.trace_overhead", "ratio", true, true},
}

// metricNames returns the names of the metrics of one kind, in report
// order: all of them, or only those BENCHMARK.json lists.
func metricNames(layer, listedOnly bool) []string {
	var out []string
	for _, m := range metricTable {
		if m.layer == layer && (m.listed || !listedOnly) {
			out = append(out, m.name)
		}
	}
	return out
}

// units maps every metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range metricTable {
		u[m.name] = m.unit
	}
	return u
}()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // the paper's scale factor; 8, and 1 in the self-test
	dir      string // the benchmark's directory: caches and outputs live below it
	root     string // the repository root, whose sources are under test
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome.
type report struct {
	Workload  string            `json:"workload"`
	Env       map[string]string `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Missing gives, per metric that has no value in this run, why:
	// not applicable to the workload, or invalid.
	Missing map[string]string `json:"missing,omitempty"`
	Spans   string            `json:"spans,omitempty"`

	calib []float64 // the calibrator's readings over the timed window, in ms

	mu sync.Mutex // guards Correct, Problems and the counts under concurrent clients
}

func newReport(o *options) *report {
	return &report{Workload: o.workload, Env: runEnv(o), Correct: true,
		Metrics: map[string]metric{}, Missing: map[string]string{}}
}

func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Missing[name] = "invalid: not a finite number"
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// na marks a metric as not measured in this run, with the reason.
func (r *report) na(name, why string) {
	if _, ok := r.Metrics[name]; !ok {
		r.Missing[name] = why
	}
}

// fail records a wrong answer or a failed check.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = false
	r.problem(fmt.Sprintf(format, args...))
}

func (r *report) problem(p string) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, p)
	}
}

// failedOp records an operation of the timed window that failed: a
// wrong answer also makes the run incorrect, an error only counts.
func (r *report) failedOp(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var wrong wrongAnswer
	if errors.As(err, &wrong) {
		r.Correct = false
	}
	r.problem(err.Error())
}

// wrongAnswer is a reply that the checks reject.
type wrongAnswer struct{ error }

func (r *report) addAttempts(attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted += attempted
	r.Failed += failed
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options, *report) error{
	"view-paper": runViewPaper,
	"server-sql": runServerSQL,
	"write-mix":  runWriteMix,
}

func main() {
	// Run from the repository root: the rdb cache, reports and spans go
	// under perfbench/.
	o := &options{scale: 8, dir: "perfbench", root: "."}
	flag.StringVar(&o.workload, "workload", "", "workload to run: view-paper, server-sql or write-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request stream: statement order, page draws, writes")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report; the last line is the
// JSON result.
func run(o *options, out io.Writer) error {
	runner, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if processCPU() <= 0 {
		return errors.New("the process CPU clock cannot be read; perfbench needs Linux")
	}
	if err := os.MkdirAll(filepath.Join(o.dir, ".out"), 0o755); err != nil {
		return err
	}
	rep := newReport(o)
	if err := runner(o, rep); err != nil {
		return err
	}
	rep.scaleCPU(rep.calib)
	if rep.Attempted > 0 {
		rep.set("failed_share", float64(rep.Failed)/float64(rep.Attempted))
	}
	names, all := metricNames(o.trace, true), metricNames(o.trace, false)
	for _, n := range all {
		if _, ok := rep.Metrics[n]; !ok && rep.Missing[n] == "" {
			rep.Missing[n] = "not measured"
		}
	}
	if err := writeReport(o, rep); err != nil {
		return err
	}
	printReport(out, rep, all)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	for _, n := range names {
		m, ok := rep.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s has no value: %s", n, rep.Missing[n])
		}
		res.Metrics[n] = m
	}
	if rep.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func printReport(w io.Writer, rep *report, names []string) {
	keys := make([]string, 0, len(rep.Env))
	for k := range rep.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# env %s = %s\n", k, rep.Env[k])
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
	for _, n := range names {
		if m, ok := rep.Metrics[n]; ok {
			fmt.Fprintf(w, "# %s = %.6g %s\n", n, m.Value, m.Unit)
		} else {
			fmt.Fprintf(w, "# %s: %s\n", n, rep.Missing[n])
		}
	}
	if rep.Spans != "" {
		fmt.Fprintf(w, "# spans written to %s\n", rep.Spans)
	}
}

func writeReport(o *options, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath(o, "report", "json"), b, 0o644)
}

// outPath names a per-run output file under the benchmark's directory.
func outPath(o *options, kind, ext string) string {
	return filepath.Join(o.dir, ".out", fmt.Sprintf("%s-%s-seed%d-trace%d.%s", kind, o.workload, o.seed, b2i(o.trace), ext))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runEnv records the run environment.
func runEnv(o *options) map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"scale":      fmt.Sprint(o.scale),
		"seed":       fmt.Sprint(o.seed),
		"data":       "workload.Generate at the generator's default seed",
		"workload":   o.workload,
		"trace":      fmt.Sprint(b2i(o.trace)),
		"commit":     sourceDigest(o.root),
	}
}

// sourceDigest identifies the code under test: the git revision when
// the binary was built inside a git checkout, otherwise a hash of the
// repository's Go sources.
func sourceDigest(root string) string {
	if rev := vcsRevision(); rev != "" {
		return rev
	}
	h, err := goSourceHash(root)
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + h
}

// goSourceHash is a SHA-256 over the Go sources and go.mod files below
// dir, skipping hidden directories.
func goSourceHash(dir string) (string, error) {
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != dir && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		n++
		return nil
	})
	if err == nil && n == 0 {
		err = fmt.Errorf("no Go sources under %s", dir)
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}
