package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/values"
)

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestWorkloadsPrintEveryMetric runs each workload briefly at scale 1,
// untraced and traced, and checks that the run is correct, that its JSON
// line carries exactly the metrics BENCHMARK.json names, and that the
// report lines name every metric the benchmark defines.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"view-paper", "server-sql", "write-mix"} {
		for _, trace := range []bool{false, true} {
			o := &options{workload: wl, seed: 3, seconds: 1.5, trace: trace, scale: 1, dir: t.TempDir(), root: ".."}
			var out bytes.Buffer
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line %q: %v", wl, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want, all := metricNames(trace, true), metricNames(trace, false)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, n := range want {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != units[n] {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, n, m, units[n])
				}
			}
			for _, n := range all {
				if !strings.Contains(out.String(), "# "+n+" ") && !strings.Contains(out.String(), "# "+n+":") {
					t.Errorf("%s trace=%v: report does not name %s", wl, trace, n)
				}
			}
		}
	}
}

// TestOracleRejectsCorruptAnswer checks that the rdb check accepts the
// engine's answer and rejects it once one cell is changed, and that the
// window check rejects a page holding a row of another page.
func TestOracleRejectsCorruptAnswer(t *testing.T) {
	o := &options{scale: 1, dir: t.TempDir(), root: ".."}
	data := generate(o)
	or := openOracle(o, data)
	view, err := data.FactorisedR1Arena()
	if err != nil {
		t.Fatal(err)
	}
	s := viewStatements()[6] // Q7, ordered on an aggregate
	res, err := engine.New().RunOnARelContext(context.Background(), s.q, view, data.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rows, err := res.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	good, err := newDigester(res.Schema(), s.q)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := newDigester(res.Schema(), s.q)
	good.keep, bad.keep = keepRows, keepRows
	i := 0
	for rows.Next() {
		tu := append([]values.Value(nil), rows.Tuple()...)
		if err := good.addValues(tu); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			tu[len(tu)-1] = values.NewInt(tu[len(tu)-1].Int() + 1)
		}
		if err := bad.addValues(tu); err != nil {
			t.Fatal(err)
		}
		i++
	}
	want, err := or.want(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDigest(good.sum(), want); err != nil {
		t.Fatalf("the engine's answer fails the check: %v", err)
	}
	if err := sameDigest(bad.sum(), want); err == nil {
		t.Fatal("a corrupted answer passes the check")
	}
	// A window starting where the ORDER BY key changes: shifted by one
	// row, its first key is wrong.
	k := 1
	for good.kept[k].key == good.kept[k-1].key {
		k++
	}
	if err := checkWindow(good.kept[k:k+5], good.kept, good.rows, k, 5); err != nil {
		t.Fatalf("a correct window fails: %v", err)
	}
	if err := checkWindow(good.kept[k-1:k+4], good.kept, good.rows, k, 5); err == nil {
		t.Fatal("a shifted window passes")
	}
	if err := checkWindow(bad.kept[0:5], good.kept, good.rows, 0, 5); err == nil {
		t.Fatal("a window with a corrupted row passes")
	}
}

// TestOracleCacheStamp checks that a cached rdb digest is used only
// under the stamp it was computed with: an entry left by other data or
// another rdb is recomputed, not trusted.
func TestOracleCacheStamp(t *testing.T) {
	o := &options{scale: 1, dir: t.TempDir(), root: ".."}
	data := generate(o)
	s := serverReads()[0]
	or := openOracle(o, data)
	if or.stamp == "" {
		t.Fatal("no oracle stamp: rdb's sources not found")
	}
	good, err := or.want(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := or.save(); err != nil {
		t.Fatal(err)
	}
	forged := good
	forged.Set++
	for stamp, trusted := range map[string]bool{or.stamp: true, "data-0+rdb-0": false} {
		or := openOracle(o, data)
		for k := range or.entries {
			or.entries[k] = oracleEntry{Stamp: stamp, Digest: forged}
		}
		got, err := or.want(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]digest{true: forged, false: good}[trusted]; sameDigest(got, want) != nil {
			t.Errorf("stamp %s: digest %v, want %v", stamp, got, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the metrics the
// runs print, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i] || m.Unit != units[m.Name] {
				t.Errorf("%s[%d] = %s (%s), the program prints %s (%s)", kind, i, m.Name, m.Unit, want[i], units[want[i]])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, metricNames(false, true))
	check("per_layer", spec.PerLayer, metricNames(true, true))
}

// TestArrayLen checks the row counter the clients use when they need no
// cells.
func TestArrayLen(t *testing.T) {
	for in, want := range map[string]int{
		`[]`: 0, ` [ ] `: 0, `null`: 0, `[[1]]`: 1, `[[1,"a,b"],[2,"]"]]`: 2,
		`[[1,"\\\""],[{"k":[1,2]},null],[]]`: 3,
	} {
		var n arrayLen
		if err := json.Unmarshal([]byte(in), &n); err != nil || int(n) != want {
			t.Errorf("arrayLen(%s) = %d, %v; want %d", in, n, err, want)
		}
	}
}
