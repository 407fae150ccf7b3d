package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/rdb"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
	"github.com/factordb/fdb/internal/workload"
)

// digest summarises one answer: its columns, its row count, an
// order-insensitive hash of its rows and an order-sensitive hash of its
// ORDER BY keys. Two answers agree when all four agree: the same rows,
// in the same order on the ORDER BY keys (ties may come in any order).
type digest struct {
	Cols []string `json:"cols"`
	Rows int      `json:"rows"`
	Set  uint64   `json:"set"`
	Keys uint64   `json:"keys"`
}

func (d digest) String() string {
	return fmt.Sprintf("%d rows, set %016x, keys %016x, cols %v", d.Rows, d.Set, d.Keys, d.Cols)
}

func sameDigest(a, b digest) error {
	if fmt.Sprint(a.Cols) != fmt.Sprint(b.Cols) || a.Rows != b.Rows || a.Set != b.Set || a.Keys != b.Keys {
		return fmt.Errorf("answer %v, want %v", a, b)
	}
	return nil
}

// digester builds a digest row by row. Cells are written in a canonical
// text form shared by engine values, rdb values and JSON, so answers
// taken from any of them compare equal. Columns are hashed in name
// order, so column order does not matter.
type digester struct {
	cols   []string
	byName []int // byName[i] = output position of the i-th column by name
	keyIdx []int
	rows   int
	set    uint64
	keys   uint64
	cells  [][]byte
	buf    []byte
	// keep, when positive, retains up to that many canonical rows for
	// window checks.
	keep int
	kept []canonRow
}

// canonRow is one row in canonical form: its ORDER BY key and all its
// cells.
type canonRow struct{ key, row string }

func newDigester(cols []string, q *query.Query) (*digester, error) {
	d := &digester{cols: append([]string(nil), cols...), cells: make([][]byte, len(cols))}
	d.byName = make([]int, len(cols))
	for i := range cols {
		d.byName[i] = i
	}
	sort.Slice(d.byName, func(a, b int) bool { return cols[d.byName[a]] < cols[d.byName[b]] })
	for _, o := range q.OrderBy {
		i := indexOf(cols, o.Attr)
		if i < 0 {
			return nil, fmt.Errorf("ORDER BY attribute %q not in columns %v", o.Attr, cols)
		}
		d.keyIdx = append(d.keyIdx, i)
	}
	return d, nil
}

func indexOf(xs []string, x string) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}

func appendValue(dst []byte, v values.Value) []byte {
	switch v.Kind() {
	case values.Int:
		return strconv.AppendInt(dst, v.Int(), 10)
	case values.Float:
		return appendFloat(dst, v.Float())
	case values.String:
		return strconv.AppendQuote(dst, v.Str())
	case values.Bool:
		return strconv.AppendBool(dst, v.Bool())
	case values.Null:
		return append(dst, "null"...)
	}
	return append(dst, v.String()...)
}

// appendFloat writes integral floats as integers, as JSON does.
func appendFloat(dst []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

func appendJSON(dst []byte, raw json.RawMessage) ([]byte, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return nil, errors.New("empty JSON cell")
	}
	switch raw[0] {
	case '"':
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return strconv.AppendQuote(dst, s), nil
	case 'n', 't', 'f':
		return append(dst, raw...), nil
	}
	if i, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
		return strconv.AppendInt(dst, i, 10), nil
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return nil, fmt.Errorf("JSON cell %s: %w", raw, err)
	}
	return appendFloat(dst, f), nil
}

func (d *digester) addValues(t []values.Value) error {
	if len(t) != len(d.cols) {
		return fmt.Errorf("row has %d cells, want %d", len(t), len(d.cols))
	}
	d.buf = d.buf[:0]
	for i, v := range t {
		start := len(d.buf)
		d.buf = appendValue(d.buf, v)
		d.cells[i] = d.buf[start:len(d.buf):len(d.buf)]
	}
	d.addCells()
	return nil
}

func (d *digester) addJSON(row []json.RawMessage) error {
	if len(row) != len(d.cols) {
		return fmt.Errorf("row has %d cells, want %d", len(row), len(d.cols))
	}
	d.buf = d.buf[:0]
	for i, c := range row {
		start := len(d.buf)
		var err error
		if d.buf, err = appendJSON(d.buf, c); err != nil {
			return err
		}
		d.cells[i] = d.buf[start:len(d.buf):len(d.buf)]
	}
	d.addCells()
	return nil
}

func (d *digester) addCells() {
	h := fnv.New64a()
	for _, i := range d.byName {
		h.Write(d.cells[i])
		h.Write([]byte{0x1f})
	}
	d.set += mix64(h.Sum64())
	k := fnv.New64a()
	var kb [8]byte
	for i := 0; i < 8; i++ {
		kb[i] = byte(d.keys >> (8 * i))
	}
	k.Write(kb[:])
	for _, i := range d.keyIdx {
		k.Write(d.cells[i])
		k.Write([]byte{0x1f})
	}
	d.keys = k.Sum64()
	if d.rows < d.keep {
		var key, row []byte
		for _, i := range d.keyIdx {
			key = append(append(key, d.cells[i]...), 0x1f)
		}
		for _, i := range d.byName {
			row = append(append(row, d.cells[i]...), 0x1f)
		}
		d.kept = append(d.kept, canonRow{string(key), string(row)})
	}
	d.rows++
}

// mix64 is the splitmix64 finaliser; summing mixed row hashes gives a
// multiset hash in which no simple row edit cancels out.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (d *digester) sum() digest {
	cols := make([]string, len(d.byName))
	for i, j := range d.byName {
		cols[i] = d.cols[j]
	}
	return digest{Cols: cols, Rows: d.rows, Set: d.set, Keys: d.keys}
}

// relationDigest digests an rdb answer.
func relationDigest(r *relation.Relation, q *query.Query) (digest, error) {
	d, err := newDigester(r.Attrs, q)
	if err != nil {
		return digest{}, err
	}
	for _, t := range r.Tuples {
		if err := d.addValues(t); err != nil {
			return digest{}, err
		}
	}
	return d.sum(), nil
}

// checkWindow checks a LIMIT/OFFSET window of an ordered answer against
// the verified full answer's canonical rows ref: the window must hold
// min(limit, rows-offset) rows whose ORDER BY keys equal the reference
// keys at the same positions, and each row must be one of the reference
// rows carrying that key (a tie group may straddle the window's edge,
// so which tied rows fall inside is not fixed).
func checkWindow(win []canonRow, ref []canonRow, total, offset, limit int) error {
	want := total - offset
	if want < 0 {
		want = 0
	}
	if limit > 0 && want > limit {
		want = limit
	}
	if len(win) != want {
		return fmt.Errorf("window at offset %d has %d rows, want %d", offset, len(win), want)
	}
	if want == 0 {
		return nil
	}
	if offset+want > len(ref) {
		return fmt.Errorf("reference holds %d rows, window needs %d", len(ref), offset+want)
	}
	// The tie groups touching the window: extend [offset, offset+want)
	// to whole groups of equal keys.
	lo, hi := offset, offset+want
	for lo > 0 && ref[lo-1].key == ref[offset].key {
		lo--
	}
	for hi < len(ref) && ref[hi].key == ref[offset+want-1].key {
		hi++
	}
	pool := map[string]int{}
	for _, r := range ref[lo:hi] {
		pool[r.key+"\x00"+r.row]++
	}
	for i, r := range win {
		if r.key != ref[offset+i].key {
			return fmt.Errorf("window row %d has key %q, want %q", offset+i, r.key, ref[offset+i].key)
		}
		k := r.key + "\x00" + r.row
		if pool[k] == 0 {
			return fmt.Errorf("window row %d (%q) is not in the answer", offset+i, r.row)
		}
		pool[k]--
	}
	return nil
}

// oracle holds the rdb digests of one dataset, persisted per scale so
// repeated runs skip the rdb work. Each entry is keyed by the
// statement's rendered SQL and stamped with a fingerprint of the
// dataset and of rdb's sources; an entry whose stamp differs is
// recomputed, so a change to the statement, the generator or rdb is
// never checked against a stale answer.
type oracle struct {
	path    string
	stamp   string // empty when rdb's sources cannot be read: nothing is cached
	entries map[string]oracleEntry
	dirty   bool
	data    *workload.Dataset
	flat    rdb.DB // flat views R1, R2, R3, built on demand
}

type oracleEntry struct {
	Stamp  string `json:"stamp"`
	Digest digest `json:"digest"`
}

func openOracle(opt *options, data *workload.Dataset) *oracle {
	o := &oracle{
		path:    filepath.Join(opt.dir, ".cache", fmt.Sprintf("oracle-s%d.json", data.Scale)),
		entries: map[string]oracleEntry{},
		data:    data,
	}
	rdbSrc, err := goSourceHash(filepath.Join(opt.root, "internal", "rdb"))
	if err != nil {
		return o
	}
	o.stamp = datasetStamp(data) + "+rdb-" + rdbSrc
	if b, err := os.ReadFile(o.path); err == nil {
		// A damaged cache file is recomputed, not trusted.
		if json.Unmarshal(b, &o.entries) != nil {
			o.entries = map[string]oracleEntry{}
		}
	}
	return o
}

// datasetStamp fingerprints the generated base relations: per relation,
// its name, attributes, cardinality and order-insensitive row hash.
func datasetStamp(data *workload.Dataset) string {
	db := data.DB()
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		r := db[n]
		d, err := relationDigest(r, &query.Query{})
		if err != nil {
			fmt.Fprintf(h, "%s: %v\n", n, err)
			continue
		}
		fmt.Fprintf(h, "%s %v %d %x\n", n, r.Attrs, d.Rows, d.Set)
	}
	return fmt.Sprintf("data-%016x", h.Sum64())
}

// want returns the rdb digest of a statement, computing it when the
// cache lacks it. View statements (relations R1/R2/R3) run on the flat
// views; the others run on the base relations, with eager hash
// aggregation, the fastest rdb plan for them.
func (o *oracle) want(s stmt) (digest, error) {
	key := sql.Render(s.q)
	if e, ok := o.entries[key]; ok && o.stamp != "" && e.Stamp == o.stamp {
		return e.Digest, nil
	}
	eng := &rdb.Engine{Eager: true, Grouping: rdb.GroupHash}
	db := rdb.DB(o.data.DB())
	if isView(s.q) {
		if err := o.buildFlat(); err != nil {
			return digest{}, err
		}
		eng, db = &rdb.Engine{Grouping: rdb.GroupHash}, o.flat
	}
	r, err := eng.Run(s.q, db)
	if err != nil {
		return digest{}, fmt.Errorf("rdb %s: %w", s.id, err)
	}
	d, err := relationDigest(r, s.q)
	if err != nil {
		return digest{}, fmt.Errorf("rdb %s: %w", s.id, err)
	}
	o.entries[key] = oracleEntry{Stamp: o.stamp, Digest: d}
	o.dirty = o.stamp != ""
	return d, nil
}

func isView(q *query.Query) bool {
	switch q.Relations[0] {
	case "R1", "R2", "R3":
		return true
	}
	return false
}

func (o *oracle) buildFlat() error {
	if o.flat != nil {
		return nil
	}
	db, err := flatViews(o.data)
	o.flat = db
	return err
}

// flatViews evaluates the views in rdb: R1 = R2 is the join of the base
// relations with both join copies kept, the schema of the factorised
// view, and R3 is Orders.
func flatViews(data *workload.Dataset) (rdb.DB, error) {
	join := &query.Query{Relations: []string{"Orders", "Packages", "Items"}, Equalities: workload.R1Equalities()}
	r1, err := rdb.New().Run(join, rdb.DB(data.DB()))
	if err != nil {
		return nil, fmt.Errorf("rdb R1: %w", err)
	}
	return rdb.DB{"R1": r1, "R2": r1, "R3": data.Orders}, nil
}

// save persists new digests and drops the flat views.
func (o *oracle) save() error {
	o.flat = nil
	if !o.dirty {
		return nil
	}
	b, err := json.Marshal(o.entries)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.path), 0o755); err != nil {
		return err
	}
	tmp := o.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, o.path)
}
