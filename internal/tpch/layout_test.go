package tpch

import (
	"reflect"
	"testing"
	"unsafe"
)

// pointerField names the first field under typ that holds a pointer (a
// string, slice, map, pointer, channel, func or interface), or "".
func pointerField(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if inner := pointerField(f.Type); inner != "" {
				return f.Name + "." + inner
			}
		}
		return ""
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return typ.Kind().String()
	default:
		return ""
	}
}

// TestFactRowLayout guards the fact rows' memory layout: the streamed
// tables hold no pointers, so the garbage collector never scans them, and
// Lineitem and Order keep their packed widths. A new text column belongs
// in a code type over a name table, not in a string field.
func TestFactRowLayout(t *testing.T) {
	if got := unsafe.Sizeof(Lineitem{}); got != 64 {
		t.Errorf("Lineitem is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Order{}); got != 32 {
		t.Errorf("Order is %d bytes, want 32", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[Lineitem](), reflect.TypeFor[Order](), reflect.TypeFor[PartSupp]()} {
		if f := pointerField(typ); f != "" {
			t.Errorf("%s holds a pointer: %s", typ.Name(), f)
		}
	}
}

// TestLineitemsNeverRegrow checks that the lineitem table is drawn into
// the slice it was reserved as (an overflow would copy the whole table),
// and that every drawn order and ship date falls in the calendar the
// catalog's year-keyed tables cover.
func TestLineitemsNeverRegrow(t *testing.T) {
	const sf = 0.02
	want := scaled(1500000, sf, 1500) * maxLinesPerOrder
	lastYear := orderDateMax.Year()
	for seed := uint64(1); seed <= 20; seed++ {
		orders, lines := genOrdersAndLines(sf, seed)
		if cap(lines) != want {
			t.Errorf("seed %d: lineitem capacity %d, want the reserved %d", seed, cap(lines), want)
		}
		for i := range orders {
			if y := orders[i].OrderDate.Year(); y < firstYear || y > lastYear {
				t.Fatalf("seed %d: order %d dated %d, outside %d..%d", seed, i+1, y, firstYear, lastYear)
			}
		}
		for i := range lines {
			if y := lines[i].ShipDate.Year(); y < firstYear || y > lastYear {
				t.Fatalf("seed %d: line %d shipped %d, outside %d..%d", seed, i, y, firstYear, lastYear)
			}
		}
	}
}
