// Package tpch is a from-scratch, deterministic stand-in for TPC-H dbgen
// plus streaming implementations of all 22 TPC-H queries on the online-
// aggregation engine in internal/aqp.
//
// The paper evaluates Rotary-AQP on the TPC-H benchmark at scale factor 1:
// "Rotary-AQP supports all 22 queries and runs them on the TPC-H dataset"
// (§V-A1), with the queries grouped into light, medium, and heavy classes
// by observed memory consumption (Table I). This package reproduces the
// schema, the value domains that matter to the queries (dates, discounts,
// quantities, flags, brands, regions…), the cardinality ratios between
// tables, and the query shapes. Text columns are simplified to the token
// sets the queries filter on.
package tpch

import "fmt"

// Date is a day count since 1992-01-01, the start of the TPC-H order
// calendar. Orders span 1992-01-01 .. 1998-08-02.
type Date int32

// MakeDate builds a Date from a calendar day using a proleptic Gregorian
// day count. Months are 1-12, days 1-31.
func MakeDate(year, month, day int) Date {
	return Date(civilToDays(year, month, day) - civilToDays(1992, 1, 1))
}

// Year reports the calendar year of d.
func (d Date) Year() int {
	y, _, _ := daysToCivil(int(d) + civilToDays(1992, 1, 1))
	return y
}

// Month reports the calendar month (1-12) of d.
func (d Date) Month() int {
	_, m, _ := daysToCivil(int(d) + civilToDays(1992, 1, 1))
	return m
}

// String formats d as YYYY-MM-DD.
func (d Date) String() string {
	y, m, day := daysToCivil(int(d) + civilToDays(1992, 1, 1))
	return fmt.Sprintf("%04d-%02d-%02d", y, m, day)
}

// civilToDays converts a Gregorian civil date to a serial day number
// (days since 0000-03-01, Howard Hinnant's algorithm).
func civilToDays(y, m, d int) int {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400
	mp := (m + 9) % 12
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe
}

// daysToCivil is the inverse of civilToDays.
func daysToCivil(z int) (y, m, d int) {
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y = yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = doy - (153*mp+2)/5 + 1
	m = (mp+2)%12 + 1
	if m <= 2 {
		y++
	}
	return y, m, d
}

// Region mirrors the TPC-H REGION table (5 rows).
type Region struct {
	RegionKey int32
	Name      string
}

// Nation mirrors the TPC-H NATION table (25 rows).
type Nation struct {
	NationKey int32
	Name      string
	RegionKey int32
}

// Supplier mirrors the TPC-H SUPPLIER table (10,000 × SF rows).
type Supplier struct {
	SuppKey   int32
	Name      string
	NationKey int32
	AcctBal   float64
	Comment   string
}

// Customer mirrors the TPC-H CUSTOMER table (150,000 × SF rows).
type Customer struct {
	CustKey    int32
	Name       string
	NationKey  int32
	Phone      string
	AcctBal    float64
	MktSegment string
}

// Part mirrors the TPC-H PART table (200,000 × SF rows).
type Part struct {
	PartKey     int32
	Name        string
	Mfgr        string
	Brand       string
	Type        string
	Size        int32
	Container   string
	RetailPrice float64
}

// PartSupp mirrors the TPC-H PARTSUPP table (800,000 × SF rows; 4
// suppliers per part).
type PartSupp struct {
	PartKey    int32
	SuppKey    int32
	AvailQty   int32
	SupplyCost float64
}

// Order mirrors the TPC-H ORDERS table (1,500,000 × SF rows). Like
// Lineitem it holds no pointers: its text columns are codes into the
// generator's name tables, and its fields are ordered widest first so the
// row packs into 32 bytes.
type Order struct {
	TotalPrice    float64
	OrderKey      int32
	CustKey       int32
	OrderDate     Date
	LineCount     int32 // lines generated for this order (dbgen internal)
	OrderStatus   byte
	OrderPriority OrderPriority
	Comment       OrderComment
}

// Lineitem mirrors the TPC-H LINEITEM table (~6,000,000 × SF rows; 1-7
// lines per order). It holds no pointers, so the garbage collector never
// scans the fact table, and its fields are ordered widest first so the
// row packs into 64 bytes.
type Lineitem struct {
	Quantity      float64
	ExtendedPrice float64
	Discount      float64
	Tax           float64
	OrderKey      int32
	PartKey       int32
	SuppKey       int32
	LineNumber    int32
	ShipDate      Date
	CommitDate    Date
	ReceiptDate   Date
	ReturnFlag    byte
	LineStatus    byte
	ShipInstruct  ShipInstruct
	ShipMode      ShipMode
}

// OrderPriority is o_orderpriority, an index into orderPriorities.
type OrderPriority uint8

func (p OrderPriority) String() string { return orderPriorities[p] }

// OrderComment is o_comment: two indexes into commentWords, printed with
// a space between them.
type OrderComment [2]uint8

func (c OrderComment) String() string { return commentWords[c[0]] + " " + commentWords[c[1]] }

// ShipInstruct is l_shipinstruct, an index into shipInstructs.
type ShipInstruct uint8

func (s ShipInstruct) String() string { return shipInstructs[s] }

// ShipMode is l_shipmode, an index into shipModes.
type ShipMode uint8

func (m ShipMode) String() string { return shipModes[m] }

// codeOf returns the code of name in a code type's name table; it panics
// on a name outside the table, which is a typo in a query's predicate.
func codeOf[T ~uint8](names []string, name string) T {
	for i, n := range names {
		if n == name {
			return T(i)
		}
	}
	panic(fmt.Sprintf("tpch: %q is not one of %q", name, names))
}

// Dataset is a fully generated TPC-H database at some scale factor,
// resident in memory. Dimension tables are indexed by the queries; the
// fact tables (lineitem, orders, partsupp) are streamed batch-by-batch by
// the AQP engine.
type Dataset struct {
	SF        float64
	Regions   []Region
	Nations   []Nation
	Suppliers []Supplier
	Customers []Customer
	Parts     []Part
	PartSupps []PartSupp
	Orders    []Order
	Lineitems []Lineitem
}

// Rows reports the total row count across all tables.
func (d *Dataset) Rows() int {
	return len(d.Regions) + len(d.Nations) + len(d.Suppliers) + len(d.Customers) +
		len(d.Parts) + len(d.PartSupps) + len(d.Orders) + len(d.Lineitems)
}
