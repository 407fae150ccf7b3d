package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/engine"
	"github.com/factordb/fdb/internal/relation"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/values"
)

// sumDB is R(g, y, x) with 4096 g values of 32 rows each (2^17 tuples).
// x mixes magnitudes: 1e16 on the first row of every 128th group and
// small fractional values elsewhere, so any change in the order of the
// floating-point additions changes the sum.
func sumDB(t *testing.T) fdb.Database {
	t.Helper()
	const groups, rows = 4096, 32
	ts := make([]relation.Tuple, 0, groups*rows)
	for g := 0; g < groups; g++ {
		for y := 0; y < rows; y++ {
			x := 1 + float64(y)/8 + float64(g%7)/64
			if g%128 == 0 && y == 0 {
				x = 1e16
			}
			ts = append(ts, relation.Tuple{
				values.NewInt(int64(g)), values.NewInt(int64(y)), values.NewFloat(x),
			})
		}
	}
	rel, err := relation.New("R", []string{"g", "y", "x"}, ts)
	if err != nil {
		t.Fatal(err)
	}
	return fdb.Database{"R": rel}
}

// TestFloatSumIndependentOfGOMAXPROCS runs a float SUM over a relation
// large enough that the answer would depend on how the additions were
// grouped, through the engine and through the server, with one and
// with four runnable cores. Every answer must encode to the same bytes.
func TestFloatSumIndependentOfGOMAXPROCS(t *testing.T) {
	const stmt = "SELECT SUM(x) AS s FROM R"
	db := sumDB(t)
	engineRows := func() string {
		q, err := sql.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.New().Run(q, db)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		var rows [][]any
		err = res.ForEach(func(tp relation.Tuple) bool {
			row := make([]any, len(tp))
			for i, v := range tp {
				row[i] = engine.GoValue(v)
			}
			rows = append(rows, row)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serverRows := func() string {
		s, err := New(Config{Databases: map[string]fdb.Database{"d": db}})
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(QueryRequest{SQL: stmt})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp struct {
			Rows json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return string(resp.Rows)
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	answers := map[string]string{}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		answers[fmt.Sprintf("engine/GOMAXPROCS=%d", procs)] = engineRows()
		answers[fmt.Sprintf("server/GOMAXPROCS=%d", procs)] = serverRows()
	}
	want := answers["engine/GOMAXPROCS=1"]
	for name, got := range answers {
		if got != want {
			t.Errorf("%s answered %s, engine/GOMAXPROCS=1 answered %s", name, got, want)
		}
	}
}
