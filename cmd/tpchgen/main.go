// Command tpchgen emits the synthetic TPC-H tables as CSV files, one per
// table, into an output directory.
//
// Usage:
//
//	tpchgen [-sf 0.01] [-seed 1] [-out ./tpch-data] [-tables lineitem,orders,...]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rotary/internal/tpch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tpchgen: ")
	var (
		sf     = flag.Float64("sf", 0.01, "scale factor")
		seed   = flag.Uint64("seed", 1, "generation seed")
		out    = flag.String("out", "tpch-data", "output directory")
		tables = flag.String("tables", "", "comma-separated table subset (default: all)")
		stats  = flag.Bool("stats", false, "print table/column statistics instead of writing CSVs")
	)
	flag.Parse()

	ds := tpch.Generate(*sf, *seed)
	if *stats {
		fmt.Print(tpch.RenderStats(ds.Stats()))
		fmt.Printf("generated SF=%g: %d total rows\n", *sf, ds.Rows())
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	want := map[string]bool{}
	for _, t := range strings.Split(*tables, ",") {
		if t = strings.TrimSpace(t); t != "" {
			want[t] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	writers := []struct {
		name  string
		write func(*csv.Writer) error
	}{
		{"region", func(w *csv.Writer) error {
			if err := w.Write([]string{"r_regionkey", "r_name"}); err != nil {
				return err
			}
			for _, r := range ds.Regions {
				if err := w.Write([]string{itoa(r.RegionKey), r.Name}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"nation", func(w *csv.Writer) error {
			if err := w.Write([]string{"n_nationkey", "n_name", "n_regionkey"}); err != nil {
				return err
			}
			for _, n := range ds.Nations {
				if err := w.Write([]string{itoa(n.NationKey), n.Name, itoa(n.RegionKey)}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"supplier", func(w *csv.Writer) error {
			if err := w.Write([]string{"s_suppkey", "s_name", "s_nationkey", "s_acctbal", "s_comment"}); err != nil {
				return err
			}
			for _, s := range ds.Suppliers {
				if err := w.Write([]string{itoa(s.SuppKey), s.Name, itoa(s.NationKey), ftoa(s.AcctBal), s.Comment}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"customer", func(w *csv.Writer) error {
			if err := w.Write([]string{"c_custkey", "c_name", "c_nationkey", "c_phone", "c_acctbal", "c_mktsegment"}); err != nil {
				return err
			}
			for _, c := range ds.Customers {
				if err := w.Write([]string{itoa(c.CustKey), c.Name, itoa(c.NationKey), c.Phone, ftoa(c.AcctBal), c.MktSegment}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"part", func(w *csv.Writer) error {
			if err := w.Write([]string{"p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size", "p_container", "p_retailprice"}); err != nil {
				return err
			}
			for _, p := range ds.Parts {
				if err := w.Write([]string{itoa(p.PartKey), p.Name, p.Mfgr, p.Brand, p.Type, itoa(p.Size), p.Container, ftoa(p.RetailPrice)}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"partsupp", func(w *csv.Writer) error {
			if err := w.Write([]string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}); err != nil {
				return err
			}
			for _, ps := range ds.PartSupps {
				if err := w.Write([]string{itoa(ps.PartKey), itoa(ps.SuppKey), itoa(ps.AvailQty), ftoa(ps.SupplyCost)}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"orders", func(w *csv.Writer) error {
			if err := w.Write([]string{"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate", "o_orderpriority"}); err != nil {
				return err
			}
			for _, o := range ds.Orders {
				if err := w.Write([]string{itoa(o.OrderKey), itoa(o.CustKey), string(o.OrderStatus), ftoa(o.TotalPrice), o.OrderDate.String(), o.OrderPriority.String()}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"lineitem", func(w *csv.Writer) error {
			header := []string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
				"l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
				"l_shipdate", "l_commitdate", "l_receiptdate", "l_shipinstruct", "l_shipmode"}
			if err := w.Write(header); err != nil {
				return err
			}
			for _, l := range ds.Lineitems {
				rec := []string{itoa(l.OrderKey), itoa(l.PartKey), itoa(l.SuppKey), itoa(l.LineNumber),
					ftoa(l.Quantity), ftoa(l.ExtendedPrice), ftoa(l.Discount), ftoa(l.Tax),
					string(l.ReturnFlag), string(l.LineStatus),
					l.ShipDate.String(), l.CommitDate.String(), l.ReceiptDate.String(),
					l.ShipInstruct.String(), l.ShipMode.String()}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
			return nil
		}},
	}

	for _, t := range writers {
		if !selected(t.name) {
			continue
		}
		path := filepath.Join(*out, t.name+".csv")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		w := csv.NewWriter(f)
		if err := t.write(w); err != nil {
			f.Close()
			log.Fatalf("%s: %v", t.name, err)
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			log.Fatalf("%s: %v", t.name, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	fmt.Printf("generated SF=%g: %d total rows\n", *sf, ds.Rows())
}

func itoa(v int32) string   { return strconv.FormatInt(int64(v), 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
