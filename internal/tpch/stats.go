package tpch

import (
	"fmt"
	"sort"
)

// This file implements the table and column statistics cmd/tpchgen -stats
// prints — the inputs Spark's cost-based optimizer exposes: row counts,
// rough row widths, and per-column cardinality/min/max. The §IV-A memory
// estimator does not call them: Catalog.MemoryProfile reads the tables'
// row counts directly.

// ColumnStats summarizes one column of one table.
type ColumnStats struct {
	Name string
	// Distinct is the exact number of distinct values.
	Distinct int
	// Min and Max bound numeric columns; both are 0 for string columns
	// whose ordering is not meaningful to the estimator.
	Min, Max float64
}

// TableStats summarizes one table.
type TableStats struct {
	Name string
	Rows int
	// RowBytes is the approximate in-memory width of one row.
	RowBytes int
	Columns  []ColumnStats
}

// ColumnByName returns a table column's statistics.
func (t TableStats) ColumnByName(name string) (ColumnStats, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return ColumnStats{}, false
}

// Stats computes the statistics of every table in the dataset. The scan
// is linear in the dataset size and intended to run once per catalog.
func (d *Dataset) Stats() []TableStats {
	var out []TableStats

	out = append(out, TableStats{
		Name: "region", Rows: len(d.Regions), RowBytes: 32,
		Columns: []ColumnStats{
			intCol("r_regionkey", len(d.Regions), func(i int) float64 { return float64(d.Regions[i].RegionKey) }),
			strCol("r_name", len(d.Regions), func(i int) string { return d.Regions[i].Name }),
		},
	})
	out = append(out, TableStats{
		Name: "nation", Rows: len(d.Nations), RowBytes: 40,
		Columns: []ColumnStats{
			intCol("n_nationkey", len(d.Nations), func(i int) float64 { return float64(d.Nations[i].NationKey) }),
			strCol("n_name", len(d.Nations), func(i int) string { return d.Nations[i].Name }),
			intCol("n_regionkey", len(d.Nations), func(i int) float64 { return float64(d.Nations[i].RegionKey) }),
		},
	})
	out = append(out, TableStats{
		Name: "supplier", Rows: len(d.Suppliers), RowBytes: 96,
		Columns: []ColumnStats{
			intCol("s_suppkey", len(d.Suppliers), func(i int) float64 { return float64(d.Suppliers[i].SuppKey) }),
			intCol("s_nationkey", len(d.Suppliers), func(i int) float64 { return float64(d.Suppliers[i].NationKey) }),
			intCol("s_acctbal", len(d.Suppliers), func(i int) float64 { return d.Suppliers[i].AcctBal }),
		},
	})
	out = append(out, TableStats{
		Name: "customer", Rows: len(d.Customers), RowBytes: 112,
		Columns: []ColumnStats{
			intCol("c_custkey", len(d.Customers), func(i int) float64 { return float64(d.Customers[i].CustKey) }),
			intCol("c_nationkey", len(d.Customers), func(i int) float64 { return float64(d.Customers[i].NationKey) }),
			strCol("c_mktsegment", len(d.Customers), func(i int) string { return d.Customers[i].MktSegment }),
			intCol("c_acctbal", len(d.Customers), func(i int) float64 { return d.Customers[i].AcctBal }),
		},
	})
	out = append(out, TableStats{
		Name: "part", Rows: len(d.Parts), RowBytes: 128,
		Columns: []ColumnStats{
			intCol("p_partkey", len(d.Parts), func(i int) float64 { return float64(d.Parts[i].PartKey) }),
			strCol("p_brand", len(d.Parts), func(i int) string { return d.Parts[i].Brand }),
			strCol("p_type", len(d.Parts), func(i int) string { return d.Parts[i].Type }),
			strCol("p_container", len(d.Parts), func(i int) string { return d.Parts[i].Container }),
			intCol("p_size", len(d.Parts), func(i int) float64 { return float64(d.Parts[i].Size) }),
			intCol("p_retailprice", len(d.Parts), func(i int) float64 { return d.Parts[i].RetailPrice }),
		},
	})
	out = append(out, TableStats{
		Name: "partsupp", Rows: len(d.PartSupps), RowBytes: 40,
		Columns: []ColumnStats{
			intCol("ps_partkey", len(d.PartSupps), func(i int) float64 { return float64(d.PartSupps[i].PartKey) }),
			intCol("ps_suppkey", len(d.PartSupps), func(i int) float64 { return float64(d.PartSupps[i].SuppKey) }),
			intCol("ps_availqty", len(d.PartSupps), func(i int) float64 { return float64(d.PartSupps[i].AvailQty) }),
			intCol("ps_supplycost", len(d.PartSupps), func(i int) float64 { return d.PartSupps[i].SupplyCost }),
		},
	})
	out = append(out, TableStats{
		Name: "orders", Rows: len(d.Orders), RowBytes: 96,
		Columns: []ColumnStats{
			intCol("o_orderkey", len(d.Orders), func(i int) float64 { return float64(d.Orders[i].OrderKey) }),
			intCol("o_custkey", len(d.Orders), func(i int) float64 { return float64(d.Orders[i].CustKey) }),
			intCol("o_orderdate", len(d.Orders), func(i int) float64 { return float64(d.Orders[i].OrderDate) }),
			strCol("o_orderpriority", len(d.Orders), func(i int) string { return d.Orders[i].OrderPriority.String() }),
			intCol("o_totalprice", len(d.Orders), func(i int) float64 { return d.Orders[i].TotalPrice }),
		},
	})
	out = append(out, TableStats{
		Name: "lineitem", Rows: len(d.Lineitems), RowBytes: 120,
		Columns: []ColumnStats{
			intCol("l_orderkey", len(d.Lineitems), func(i int) float64 { return float64(d.Lineitems[i].OrderKey) }),
			intCol("l_partkey", len(d.Lineitems), func(i int) float64 { return float64(d.Lineitems[i].PartKey) }),
			intCol("l_suppkey", len(d.Lineitems), func(i int) float64 { return float64(d.Lineitems[i].SuppKey) }),
			intCol("l_quantity", len(d.Lineitems), func(i int) float64 { return d.Lineitems[i].Quantity }),
			intCol("l_discount", len(d.Lineitems), func(i int) float64 { return d.Lineitems[i].Discount }),
			intCol("l_shipdate", len(d.Lineitems), func(i int) float64 { return float64(d.Lineitems[i].ShipDate) }),
			strCol("l_shipmode", len(d.Lineitems), func(i int) string { return d.Lineitems[i].ShipMode.String() }),
			strCol("l_returnflag", len(d.Lineitems), func(i int) string { return string(d.Lineitems[i].ReturnFlag) }),
		},
	})
	return out
}

// intCol scans a numeric column.
func intCol(name string, n int, get func(int) float64) ColumnStats {
	c := ColumnStats{Name: name}
	if n == 0 {
		return c
	}
	distinct := make(map[float64]struct{}, 64)
	c.Min, c.Max = get(0), get(0)
	for i := 0; i < n; i++ {
		v := get(i)
		if v < c.Min {
			c.Min = v
		}
		if v > c.Max {
			c.Max = v
		}
		distinct[v] = struct{}{}
	}
	c.Distinct = len(distinct)
	return c
}

// strCol scans a string column.
func strCol(name string, n int, get func(int) string) ColumnStats {
	c := ColumnStats{Name: name}
	distinct := make(map[string]struct{}, 64)
	for i := 0; i < n; i++ {
		distinct[get(i)] = struct{}{}
	}
	c.Distinct = len(distinct)
	return c
}

// RenderStats formats the statistics as a plain-text report (used by
// cmd/tpchgen -stats).
func RenderStats(stats []TableStats) string {
	var b []byte
	for _, t := range stats {
		b = append(b, fmt.Sprintf("%-10s rows=%-8d rowbytes=%d\n", t.Name, t.Rows, t.RowBytes)...)
		cols := append([]ColumnStats(nil), t.Columns...)
		sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
		for _, c := range cols {
			if c.Min == 0 && c.Max == 0 {
				b = append(b, fmt.Sprintf("  %-18s distinct=%d\n", c.Name, c.Distinct)...)
			} else {
				b = append(b, fmt.Sprintf("  %-18s distinct=%-8d min=%.2f max=%.2f\n", c.Name, c.Distinct, c.Min, c.Max)...)
			}
		}
	}
	return string(b)
}

// Describe returns a human-readable summary of the named query's plan
// shape: Table I class, fact stream, cost anchor, memory estimate, and
// the aggregate output columns.
func (c *Catalog) Describe(name string) (string, error) {
	cls, err := ClassOf(name)
	if err != nil {
		return "", err
	}
	rows, err := c.FactRows(name)
	if err != nil {
		return "", err
	}
	cm, err := c.CostModel(name)
	if err != nil {
		return "", err
	}
	prof, err := c.MemoryProfile(name)
	if err != nil {
		return "", err
	}
	q, err := c.build(name)
	if err != nil {
		return "", err
	}
	specs := q.online().Snapshot().Specs

	fact := "lineitem"
	switch name {
	case "q13":
		fact = "orders"
	case "q22":
		fact = "customer"
	case "q2", "q11", "q16", "q20":
		fact = "partsupp"
	}
	var b []byte
	b = fmt.Appendf(b, "%s: %s query\n", name, cls)
	b = fmt.Appendf(b, "  fact stream      : %s (%d rows)\n", fact, rows)
	b = fmt.Appendf(b, "  full pass (1 thr): %.0f virtual seconds\n", cm.BatchCost(rows, 1))
	b = fmt.Appendf(b, "  memory estimate  : %.1f MB (resident %d rows, %d projected groups)\n",
		prof.EstimateMB(), prof.ResidentRows, prof.ProjectedGroups)
	b = fmt.Appendf(b, "  aggregates       :")
	for _, s := range specs {
		b = fmt.Appendf(b, " %s(%s)", s.Kind, s.Name)
	}
	b = append(b, '\n')
	return string(b), nil
}
