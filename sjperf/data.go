package main

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/tpch"
)

// table is one generated plaintext table as uploaded.
type table struct {
	name    string
	rows    []engine.PlainRow
	indexed bool
}

// queryClass is one SQL query of a workload's rotation together with its
// plaintext reference answer.
type queryClass struct {
	label string
	sql   string
	want  []string // sorted resultKeys of the expected stitched rows
	// sel marks, per table, the rows that satisfy the query's predicates
	// on that table (every row of a table without predicates).
	sel map[string][]bool
	// maxSigma is the reference sigma(q) of the compiled plan (see
	// referenceSigma), set once the catalog is synced.
	maxSigma int
}

// resultKey canonicalises one stitched row, row ids and payload bytes
// per FROM-clause table, so results compare as sorted string lists.
func resultKey(rows []int, payloads [][]byte) string {
	var b strings.Builder
	for i := range rows {
		fmt.Fprintf(&b, "%d:%q;", rows[i], payloads[i])
	}
	return b.String()
}

func customerRows(ds *tpch.Dataset) []engine.PlainRow {
	out := make([]engine.PlainRow, len(ds.Customers))
	for i, c := range ds.Customers {
		out[i] = engine.PlainRow{
			JoinValue: tpch.CustomerJoinValue(c),
			Attrs:     [][]byte{[]byte(c.Selectivity)},
			Payload:   []byte(fmt.Sprintf("%s (%s)", c.Name, c.MktSegment)),
		}
	}
	return out
}

// profileRows derives the per-customer Profiles table the SQL shell
// builds: same join key domain and selectivity as Customers.
func profileRows(ds *tpch.Dataset) []engine.PlainRow {
	out := make([]engine.PlainRow, len(ds.Customers))
	for i, c := range ds.Customers {
		out[i] = engine.PlainRow{
			JoinValue: tpch.CustomerJoinValue(c),
			Attrs:     [][]byte{[]byte(c.Selectivity)},
			Payload:   []byte(fmt.Sprintf("profile %d: %s, %s", c.CustKey, c.Phone, c.Address)),
		}
	}
	return out
}

// orderRows renders orders as plaintext rows; keyBase offsets the order
// keys printed into payloads so ingest batches stay distinct.
func orderRows(orders []tpch.Order, keyBase int) []engine.PlainRow {
	out := make([]engine.PlainRow, len(orders))
	for i, o := range orders {
		out[i] = engine.PlainRow{
			JoinValue: tpch.OrderJoinValue(o),
			Attrs:     [][]byte{[]byte(o.Selectivity)},
			Payload:   []byte(fmt.Sprintf("order %d ($%.2f, %s)", keyBase+o.OrderKey, o.TotalPrice, o.OrderDate)),
		}
	}
	return out
}

var tpchSchemas = map[string]sql.TableSchema{
	"Customers": {Name: "Customers", JoinColumn: "custkey", Attrs: map[string]int{"selectivity": 0}},
	"Orders":    {Name: "Orders", JoinColumn: "custkey", Attrs: map[string]int{"selectivity": 0}},
	"Profiles":  {Name: "Profiles", JoinColumn: "custkey", Attrs: map[string]int{"selectivity": 0}},
}

// scanData builds the two-table Customers JOIN Orders workload: tables
// uploaded without SSE indexes, one query per selectivity class of
// Orders, plus the 'none' class that matches most orders.
func scanData(scale float64, seed int64) ([]table, []queryClass) {
	ds := tpch.Generate(scale, seed)
	cust, ord := customerRows(ds), orderRows(ds.Orders, 0)
	tables := []table{{name: "Customers", rows: cust}, {name: "Orders", rows: ord}}
	var classes []queryClass
	for _, label := range []string{tpch.Sel100, tpch.Sel50, tpch.Sel25, tpch.Sel12_5, tpch.SelectivityNone} {
		q := queryClass{
			label: label,
			sql: "SELECT * FROM Customers JOIN Orders ON Customers.custkey = Orders.custkey " +
				"WHERE Orders.selectivity = '" + label + "'",
			sel: map[string][]bool{"Customers": selectWhere(ds.Customers, func(tpch.Customer) bool { return true }),
				"Orders": selectWhere(ds.Orders, func(o tpch.Order) bool { return o.Selectivity == label })},
		}
		for oi, o := range ds.Orders {
			if o.Selectivity != label {
				continue
			}
			ci := o.CustKey - 1
			q.want = append(q.want, resultKey([]int{ci, oi}, [][]byte{cust[ci].Payload, ord[oi].Payload}))
		}
		sort.Strings(q.want)
		classes = append(classes, q)
	}
	return tables, classes
}

// chainRotation is the chain workload's query mix: the four selective
// classes, with the heaviest one twice. Queries of the two sparsest
// classes select no customer and stop after one cheap step, so with four
// equal classes the median would fall on the edge between the cheap half
// and the two-step half and jump between them from run to run; with five
// entries it falls inside the 1/25 class.
var chainRotation = []string{tpch.Sel100, tpch.Sel50, tpch.Sel25, tpch.Sel12_5, tpch.Sel12_5}

// chainData builds the indexed three-table chain Orders JOIN Customers
// JOIN Profiles with the same selective class on every table.
func chainData(scale float64, seed int64) ([]table, []queryClass) {
	ds := tpch.Generate(scale, seed)
	cust, ord, prof := customerRows(ds), orderRows(ds.Orders, 0), profileRows(ds)
	tables := []table{
		{name: "Customers", rows: cust, indexed: true},
		{name: "Orders", rows: ord, indexed: true},
		{name: "Profiles", rows: prof, indexed: true},
	}
	var classes []queryClass
	for _, label := range chainRotation {
		q := queryClass{
			label: label,
			sql: "SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey " +
				"JOIN Profiles ON Profiles.custkey = Customers.custkey " +
				"WHERE Orders.selectivity = '" + label + "' AND Customers.selectivity = '" + label +
				"' AND Profiles.selectivity = '" + label + "'",
		}
		custSel := selectWhere(ds.Customers, func(c tpch.Customer) bool { return c.Selectivity == label })
		q.sel = map[string][]bool{"Customers": custSel, "Profiles": custSel,
			"Orders": selectWhere(ds.Orders, func(o tpch.Order) bool { return o.Selectivity == label })}
		for oi, o := range ds.Orders {
			ci := o.CustKey - 1
			if o.Selectivity != label || ds.Customers[ci].Selectivity != label {
				continue
			}
			q.want = append(q.want, resultKey([]int{oi, ci, ci}, [][]byte{ord[oi].Payload, cust[ci].Payload, prof[ci].Payload}))
		}
		sort.Strings(q.want)
		classes = append(classes, q)
	}
	return tables, classes
}

func selectWhere[T any](rows []T, pred func(T) bool) []bool {
	out := make([]bool, len(rows))
	for i, r := range rows {
		out[i] = pred(r)
	}
	return out
}

// referenceSigma computes from the plaintext tables the sigma(q) that an
// execution of the plan's join order reveals when every step decrypts
// only the rows satisfying the query's predicates and each stitch step
// is restricted to the hub rows the previous step matched (the
// semi-join reduction). A step reveals every equal-join-value pair
// among the rows it decrypts: across its two sides and within each
// side. Rows outside a selection decrypt to unrelated values and reveal
// nothing. Like sql.Execute, the reference stops after a step that
// matched nothing.
func referenceSigma(p *sql.Plan, rows map[string][]engine.PlainRow, sel map[string][]bool) int {
	total := 0
	var tuples []map[string]int // table -> row of each intermediate result
	for i, st := range p.Steps {
		lt, rt := st.Left.Table, st.Right.Table
		var left []int
		if st.Stitch {
			seen := map[int]bool{}
			for _, t := range tuples {
				if r := t[lt]; !seen[r] {
					seen[r] = true
					left = append(left, r)
				}
			}
		} else {
			left = selectedRows(sel[lt])
		}
		right := selectedRows(sel[rt])
		byValue := map[string][]int{}
		for _, r := range right {
			k := string(rows[rt][r].JoinValue)
			byValue[k] = append(byValue[k], r)
		}
		total += selfPairs(rows[lt], left) + selfPairs(rows[rt], right)
		var next []map[string]int
		for _, l := range left {
			total += len(byValue[string(rows[lt][l].JoinValue)])
		}
		if st.Stitch {
			for _, t := range tuples {
				for _, r := range byValue[string(rows[lt][t[lt]].JoinValue)] {
					n := maps.Clone(t)
					n[rt] = r
					next = append(next, n)
				}
			}
		} else {
			for _, l := range left {
				for _, r := range byValue[string(rows[lt][l].JoinValue)] {
					next = append(next, map[string]int{lt: l, rt: r})
				}
			}
		}
		tuples = next
		if i < len(p.Steps)-1 && len(tuples) == 0 {
			break
		}
	}
	return total
}

func selectedRows(sel []bool) []int {
	var out []int
	for i, ok := range sel {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// selfPairs counts the pairs of the given rows that share a join value.
func selfPairs(rows []engine.PlainRow, ids []int) int {
	count := map[string]int{}
	n := 0
	for _, i := range ids {
		k := string(rows[i].JoinValue)
		n += count[k]
		count[k]++
	}
	return n
}

// ingestBatch returns batch i of fresh Orders rows for the write path,
// generated from the workload seed and the batch number.
func ingestBatch(seed int64, i, rows int) []engine.PlainRow {
	// Scale chosen so the generator yields exactly rows orders (its
	// counts round down, hence the half-row margin).
	ds := tpch.Generate((float64(rows)+0.5)/tpch.OrdersPerSF, seed*1_000_003+int64(i))
	return orderRows(ds.Orders[:rows], i*rows)
}
