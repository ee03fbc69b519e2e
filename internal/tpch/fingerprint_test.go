package tpch

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"rotary/internal/aqp"
)

// hashRows folds every field of every row into h, fields in name order:
// a float by its bits, an integer (a Date too) by its value, and a string
// or any other Stringer by its text. The fingerprint is therefore
// independent of field order and of whether a text column is stored as a
// string or as a code into a name table.
func hashRows[T any](h hash.Hash64, rows []T) {
	typ := reflect.TypeFor[T]()
	fields := make([]int, typ.NumField())
	for i := range fields {
		fields[i] = i
	}
	sort.Slice(fields, func(a, b int) bool { return typ.Field(fields[a]).Name < typ.Field(fields[b]).Name })
	stringer := reflect.TypeFor[fmt.Stringer]()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	text := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	for i := range rows {
		v := reflect.ValueOf(&rows[i]).Elem()
		for _, f := range fields {
			fv := v.Field(f)
			switch {
			case fv.Kind() == reflect.Float64:
				word(math.Float64bits(fv.Float()))
			case fv.Kind() == reflect.Int32:
				word(uint64(fv.Int()))
			case fv.Kind() == reflect.String:
				text(fv.String())
			case fv.Type().Implements(stringer):
				text(fv.Interface().(fmt.Stringer).String())
			case fv.Kind() == reflect.Uint8:
				h.Write([]byte{byte(fv.Uint())})
			default:
				panic(fmt.Sprintf("hashRows: %s.%s has unhashed kind %s", typ.Name(), typ.Field(f).Name, fv.Kind()))
			}
		}
	}
}

// TestGenerateFingerprint pins the generated data to the bit: every field
// of every row of every table, including columns the CSV export does not
// write (Order.Comment, Order.LineCount). A change to the generator's
// layout or concurrency must leave these sums unchanged.
func TestGenerateFingerprint(t *testing.T) {
	want := map[string]uint64{
		"0.005/1": 0x82154a74a0ced7dc,
		"0.005/7": 0x3cb237b77df29978,
		"0.02/1":  0x5dbc229a01ae0b06,
		"0.02/7":  0xeb901039eaf4f52c,
	}
	for _, sf := range []float64{0.005, 0.02} {
		for _, seed := range []uint64{1, 7} {
			ds := Generate(sf, seed)
			h := fnv.New64a()
			hashRows(h, ds.Regions)
			hashRows(h, ds.Nations)
			hashRows(h, ds.Suppliers)
			hashRows(h, ds.Customers)
			hashRows(h, ds.Parts)
			hashRows(h, ds.PartSupps)
			hashRows(h, ds.Orders)
			hashRows(h, ds.Lineitems)
			key := fmt.Sprintf("%g/%d", sf, seed)
			if got := h.Sum64(); got != want[key] {
				t.Errorf("Generate(%s) fingerprint %#x, want %#x", key, got, want[key])
			}
		}
	}
}

// hashSnapshot folds a snapshot's groups, in name order, and the bits of
// each of their values into h.
func hashSnapshot(h hash.Hash64, s aqp.Snapshot) {
	var buf [8]byte
	for _, g := range s.GroupNames() {
		fmt.Fprintf(h, "%s|", g)
		for _, v := range s.Groups[g] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
}

// TestGroundTruthFingerprint pins every query's answers to the bit: the
// per-epoch and final snapshots of a Drain in the shape the daemon's
// history seeding uses (workload.SeedAQPHistory at SF 0.02: four batches
// per epoch of RecommendedBatchRows, capped at 1/64 of the query's fact
// rows and floored at 10).
func TestGroundTruthFingerprint(t *testing.T) {
	const want = uint64(0xd1fae2f6ffc29ac1)
	cat := NewCatalog(Generate(0.02, 1), 1)
	q1Rows, _ := cat.FactRows("q1")
	h := fnv.New64a()
	for _, name := range AllQueries {
		rows, err := cat.FactRows(name)
		if err != nil {
			t.Fatal(err)
		}
		batch := max(min(max(q1Rows/256, 50), rows/64), 10)
		fmt.Fprintf(h, "%s|", name)
		final, err := cat.Drain(name, batch, 4, func(cost float64, snap aqp.Snapshot) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(cost))
			h.Write(buf[:])
			hashSnapshot(h, snap)
		})
		if err != nil {
			t.Fatal(err)
		}
		hashSnapshot(h, final)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("ground-truth fingerprint %#x, want %#x; if the change is meant, re-pin want and bump "+
			"seededHistoryVersion (internal/workload/history.go), or durable daemons keep loading the old truths "+
			"from their state directories", got, want)
	}
}
