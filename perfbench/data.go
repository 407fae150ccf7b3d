package main

import (
	"fmt"

	"github.com/factordb/fdb/internal/query"
	"github.com/factordb/fdb/internal/sql"
	"github.com/factordb/fdb/internal/workload"
)

// Query families, as in the paper's Figure 3 plus the paginated reads
// the server serves.
const (
	famAgg    = "agg"
	famAggOrd = "aggord"
	famOrd    = "ord"
	famPage   = "page"
)

var families = []string{famAgg, famAggOrd, famOrd, famPage}

// pageSize is the row count of one `page` statement.
const pageSize = 20

// stmt is one distinct statement of a workload. id names the answer the
// oracle checks it against: statements with the same id must return the
// same rows (view Q2 and flat Q2 over the join, for instance).
type stmt struct {
	id     string
	family string
	q      *query.Query
	sql    string
	// base is the id of the unpaged statement a window (LIMIT/OFFSET)
	// is checked against; empty for full statements.
	base string
}

// generate makes the run's dataset: the paper's generator at its
// default seed. Every run at a scale sees the same data, and --seed
// varies the request stream only, so runs differ by the program's and
// the machine's noise rather than by data size, and the rdb answers are
// computed once per scale.
func generate(o *options) *workload.Dataset {
	return workload.Generate(workload.Config{Scale: o.scale})
}

// group is the statement's latency group: pages count by the ordering
// they page through.
func (s stmt) group() string {
	if s.base != "" {
		return s.base + "-pages"
	}
	return s.id
}

// figureQuery returns Figure 3's query Qi (1..13) over the views.
func figureQuery(i, limit int) *query.Query {
	switch i {
	case 6:
		return workload.Q6()
	case 7:
		return workload.Q7()
	case 8:
		return workload.Q8()
	case 9:
		return workload.Q9()
	case 10:
		return workload.Q10(limit)
	case 11:
		return workload.Q11(limit)
	case 12:
		return workload.Q12(limit)
	case 13:
		return workload.Q13(limit)
	}
	q, err := workload.AggQuery(i)
	if err != nil {
		panic(err) // i is always 1..13 here
	}
	return q
}

func familyOf(i int) string {
	switch {
	case i <= 5:
		return famAgg
	case i <= 9:
		return famAggOrd
	}
	return famOrd
}

// viewStatements are the view-paper statements: Q1–Q12 on R1, Q13 on
// R3, and Q10–Q13 again with LIMIT 10.
func viewStatements() []stmt {
	var out []stmt
	for i := 1; i <= 13; i++ {
		out = append(out, stmt{id: fmt.Sprintf("Q%d", i), family: familyOf(i), q: figureQuery(i, 0)})
	}
	for i := 10; i <= 13; i++ {
		out = append(out, stmt{
			id:     fmt.Sprintf("Q%d-limit10", i),
			family: famPage,
			q:      figureQuery(i, 10),
			base:   fmt.Sprintf("Q%d", i),
		})
	}
	return out
}

// overJoin rewrites a view query over R1 as a query over the base
// relations with the join inlined.
func overJoin(q *query.Query) *query.Query {
	q.Relations = []string{"Orders", "Packages", "Items"}
	q.Equalities = workload.R1Equalities()
	return q
}

func sqlStmt(id, family string, q *query.Query) stmt {
	return stmt{id: id, family: family, q: q, sql: sql.Render(q)}
}

// serverReads are the agg and aggord statements over the join: flat
// Q1–Q5 and Q6–Q9. They return exactly the answers of the view queries
// with the same number, so they share the oracle's ids.
func serverReads() []stmt {
	var out []stmt
	for i := 1; i <= 9; i++ {
		out = append(out, sqlStmt(fmt.Sprintf("Q%d", i), familyOf(i), overJoin(figureQuery(i, 0))))
	}
	return out
}

// ordersScan orders Orders by the given attributes (all three, so the
// order is total and pages are unambiguous).
func ordersScan(order ...string) *query.Query {
	q := &query.Query{Relations: []string{"Orders"}}
	for _, a := range order {
		q.OrderBy = append(q.OrderBy, query.OrderItem{Attr: a})
	}
	return q
}

// rankedRevenue is Q7's ordering over the join with customer as a tie
// breaker, so its pages are unambiguous.
func rankedRevenue() *query.Query {
	q := overJoin(workload.Q7())
	q.OrderBy = append(q.OrderBy, query.OrderItem{Attr: "customer"})
	return q
}

// pageBases are the orderings the `page` family paginates: Orders in
// R3's order and Q7's ordering.
func pageBases() []stmt {
	return []stmt{
		sqlStmt("orders-by-date", famOrd, ordersScan("date", "customer", "package")),
		sqlStmt("revenue-rank", famAggOrd, rankedRevenue()),
	}
}

// serverOrd is the `ord` family: full scans of Orders in R3's order and
// in the Q13 re-order.
func serverOrd() []stmt {
	return []stmt{
		pageBases()[0],
		sqlStmt("orders-by-customer", famOrd, ordersScan("customer", "date", "package")),
	}
}

// pageStmt is page k of the base ordering.
func pageStmt(base stmt, k int) stmt {
	q := *base.q
	q.Limit, q.Offset = pageSize, pageSize*k
	s := sqlStmt(fmt.Sprintf("%s-page%d", base.id, k), famPage, &q)
	s.base = base.id
	return s
}
