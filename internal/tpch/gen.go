package tpch

import (
	"fmt"
	"sync"

	"rotary/internal/sim"
)

// Value domains. These mirror the TPC-H specification's substitution sets
// closely enough that every predicate in Q1-Q22 is selective in the same
// way it is against real dbgen output.
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
		"ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
		"IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
		"SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	// nationRegions maps each nation (by index above) to its region key,
	// matching the TPC-H seed data.
	nationRegions = []int32{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	mktSegments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipInstructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes       = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	containers      = []string{
		"SM CASE", "SM BOX", "SM PACK", "SM PKG",
		"MED BAG", "MED BOX", "MED PKG", "MED PACK",
		"LG CASE", "LG BOX", "LG PACK", "LG PKG",
		"JUMBO CASE", "JUMBO BOX", "JUMBO PACK", "JUMBO PKG",
		"WRAP CASE", "WRAP BOX", "WRAP PACK", "WRAP PKG",
	}
	typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	partNameWords = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched",
		"blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate",
		"coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim",
		"dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost",
		"goldenrod", "green", "grey", "honeydew", "hot", "indian", "ivory", "khaki",
		"lace", "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta",
		"maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin", "navajo",
		"navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru",
		"pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy",
		"royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate",
		"smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise",
		"violet", "wheat", "white", "yellow",
	}
	commentWords = []string{
		"carefully", "quickly", "blithely", "furiously", "slyly", "regular", "special",
		"express", "pending", "final", "ironic", "even", "bold", "silent", "Customer",
		"Complaints", "Recommends", "packages", "deposits", "requests", "accounts", "theodolites",
		"unusual", "ideas", "platelets", "instructions",
	}
)

var orderDateMax = MakeDate(1998, 8, 2)

// scaled returns base×sf rounded, with a floor of minimum so tiny test
// scale factors still produce joinable tables.
func scaled(base int, sf float64, minimum int) int {
	n := int(float64(base)*sf + 0.5)
	if n < minimum {
		n = minimum
	}
	return n
}

// Table sizes at scale factor sf.
func nSuppliers(sf float64) int { return scaled(10000, sf, 40) }
func nCustomers(sf float64) int { return scaled(150000, sf, 150) }
func nParts(sf float64) int     { return scaled(200000, sf, 200) }

// retailPrice is p_retailprice of the part with the given key.
func retailPrice(key int32) float64 {
	k := int(key)
	return 900 + float64(k%200)/10 + float64(k%1000)*0.01
}

// Generate builds a complete deterministic dataset at scale factor sf.
// Generation is seeded: the same (sf, seed) pair yields the same database
// byte-for-byte, which the experiments rely on to precompute ground-truth
// aggregates once per dataset.
//
// Every table draws from its own seeded stream, and orders and lineitems
// need only the other tables' sizes and retailPrice, so they are built
// beside suppliers, customers, parts and partsupps.
func Generate(sf float64, seed uint64) *Dataset {
	if sf <= 0 {
		panic("tpch: scale factor must be positive")
	}
	d := &Dataset{SF: sf}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.Orders, d.Lineitems = genOrdersAndLines(sf, seed)
	}()
	d.Regions = genRegions()
	d.Nations = genNations()
	d.Suppliers = genSuppliers(sf, seed)
	d.Customers = genCustomers(sf, seed)
	d.Parts = genParts(sf, seed)
	d.PartSupps = genPartSupps(d.Parts, d.Suppliers, seed)
	wg.Wait()
	return d
}

func genRegions() []Region {
	out := make([]Region, len(regionNames))
	for i, n := range regionNames {
		out[i] = Region{RegionKey: int32(i), Name: n}
	}
	return out
}

func genNations() []Nation {
	out := make([]Nation, len(nationNames))
	for i, n := range nationNames {
		out[i] = Nation{NationKey: int32(i), Name: n, RegionKey: nationRegions[i]}
	}
	return out
}

func genComment(r *sim.Rand) OrderComment {
	return OrderComment{uint8(r.IntN(len(commentWords))), uint8(r.IntN(len(commentWords)))}
}

func genPhone(r *sim.Rand, nation int32) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", 10+nation, 100+r.IntN(900), 100+r.IntN(900), 1000+r.IntN(9000))
}

func genSuppliers(sf float64, seed uint64) []Supplier {
	r := sim.NewRand(seed ^ 0x5)
	out := make([]Supplier, nSuppliers(sf))
	for i := range out {
		comment := genComment(r).String()
		// ~0.05% of suppliers carry the "Customer Complaints" marker Q16
		// filters out; force a deterministic sprinkle.
		if i%2000 == 13 {
			comment = "Customer Complaints"
		}
		out[i] = Supplier{
			SuppKey:   int32(i + 1),
			Name:      fmt.Sprintf("Supplier#%09d", i+1),
			NationKey: int32(r.IntN(len(nationNames))),
			AcctBal:   r.Range(-999.99, 9999.99),
			Comment:   comment,
		}
	}
	return out
}

func genCustomers(sf float64, seed uint64) []Customer {
	r := sim.NewRand(seed ^ 0xc)
	out := make([]Customer, nCustomers(sf))
	for i := range out {
		nation := int32(r.IntN(len(nationNames)))
		out[i] = Customer{
			CustKey:    int32(i + 1),
			Name:       fmt.Sprintf("Customer#%09d", i+1),
			NationKey:  nation,
			Phone:      genPhone(r, nation),
			AcctBal:    r.Range(-999.99, 9999.99),
			MktSegment: sim.Pick(r, mktSegments),
		}
	}
	return out
}

func genParts(sf float64, seed uint64) []Part {
	r := sim.NewRand(seed ^ 0x9)
	out := make([]Part, nParts(sf))
	for i := range out {
		mfgr := 1 + r.IntN(5)
		brand := mfgr*10 + 1 + r.IntN(5)
		name := sim.Pick(r, partNameWords) + " " + sim.Pick(r, partNameWords) + " " +
			sim.Pick(r, partNameWords) + " " + sim.Pick(r, partNameWords) + " " + sim.Pick(r, partNameWords)
		out[i] = Part{
			PartKey:     int32(i + 1),
			Name:        name,
			Mfgr:        fmt.Sprintf("Manufacturer#%d", mfgr),
			Brand:       fmt.Sprintf("Brand#%d", brand),
			Type:        sim.Pick(r, typeSyllable1) + " " + sim.Pick(r, typeSyllable2) + " " + sim.Pick(r, typeSyllable3),
			Size:        int32(1 + r.IntN(50)),
			Container:   sim.Pick(r, containers),
			RetailPrice: retailPrice(int32(i + 1)),
		}
	}
	return out
}

func genPartSupps(parts []Part, suppliers []Supplier, seed uint64) []PartSupp {
	r := sim.NewRand(seed ^ 0x7)
	out := make([]PartSupp, 0, len(parts)*4)
	ns := int32(len(suppliers))
	for _, p := range parts {
		for j := int32(0); j < 4; j++ {
			// TPC-H's supplier spread for a part; modulo keeps it joinable
			// at any scale.
			sk := (p.PartKey+j*(ns/4+1))%ns + 1
			out = append(out, PartSupp{
				PartKey:    p.PartKey,
				SuppKey:    sk,
				AvailQty:   int32(1 + r.IntN(9999)),
				SupplyCost: r.Range(1, 1000),
			})
		}
	}
	return out
}

// maxLinesPerOrder bounds an order's lines, as in dbgen.
const maxLinesPerOrder = 7

func genOrdersAndLines(sf float64, seed uint64) ([]Order, []Lineitem) {
	r := sim.NewRand(seed ^ 0x1f)
	nOrders := scaled(1500000, sf, 1500)
	nCust := int32(nCustomers(sf))
	nPart := int32(nParts(sf))
	nSupp := int32(nSuppliers(sf))
	orders := make([]Order, 0, nOrders)
	// Room for every order's maximum, so the table is never copied into a
	// larger slice; the pages past the lines drawn are never touched.
	lines := make([]Lineitem, 0, nOrders*maxLinesPerOrder)
	currentDate := MakeDate(1995, 6, 17) // dbgen's CURRENTDATE
	dateSpan := int(orderDateMax) - 1    // leave room for ship/receipt offsets

	for i := 0; i < nOrders; i++ {
		orderDate := Date(r.IntN(dateSpan - 121))
		nLines := 1 + r.IntN(maxLinesPerOrder)
		// TPC-H rule: customers whose key is divisible by 3 never place
		// orders, which is what gives Q22 its "customers without orders"
		// population.
		custKey := 1 + int32(r.Int64N(int64(nCust)))
		for custKey%3 == 0 {
			custKey = 1 + int32(r.Int64N(int64(nCust)))
		}
		o := Order{
			OrderKey:      int32(i + 1),
			CustKey:       custKey,
			OrderDate:     orderDate,
			OrderPriority: OrderPriority(r.IntN(len(orderPriorities))),
			Comment:       genComment(r),
			LineCount:     int32(nLines),
		}
		var total float64
		allFilled := true
		anyOpen := false
		for l := 0; l < nLines; l++ {
			qty := float64(1 + r.IntN(50))
			partKey := 1 + int32(r.Int64N(int64(nPart)))
			ext := qty * retailPrice(partKey)
			ship := orderDate + Date(1+r.IntN(121))
			commit := orderDate + Date(30+r.IntN(61))
			receipt := ship + Date(1+r.IntN(30))
			var rf byte
			var ls byte
			if receipt <= currentDate {
				if r.Float64() < 0.5 {
					rf = 'R'
				} else {
					rf = 'A'
				}
			} else {
				rf = 'N'
			}
			if ship > currentDate {
				ls = 'O'
				anyOpen = true
				allFilled = false
			} else {
				ls = 'F'
			}
			li := Lineitem{
				OrderKey:      o.OrderKey,
				PartKey:       partKey,
				SuppKey:       (partKey%nSupp + 1),
				LineNumber:    int32(l + 1),
				Quantity:      qty,
				ExtendedPrice: ext,
				Discount:      float64(r.IntN(11)) / 100,
				Tax:           float64(r.IntN(9)) / 100,
				ReturnFlag:    rf,
				LineStatus:    ls,
				ShipDate:      ship,
				CommitDate:    commit,
				ReceiptDate:   receipt,
				ShipInstruct:  ShipInstruct(r.IntN(len(shipInstructs))),
				ShipMode:      ShipMode(r.IntN(len(shipModes))),
			}
			total += ext * (1 + li.Tax) * (1 - li.Discount)
			lines = append(lines, li)
		}
		switch {
		case allFilled:
			o.OrderStatus = 'F'
		case anyOpen && !allFilled && nLines > 1 && r.Float64() < 0.5:
			o.OrderStatus = 'P'
		default:
			o.OrderStatus = 'O'
		}
		o.TotalPrice = total
		orders = append(orders, o)
	}
	return orders, lines
}
