package tpch

// Reference tests: a handful of queries recomputed by brute force directly
// over the generated tables, compared against the streaming engine's
// ground truth. These pin the engine's join/filter/aggregate semantics
// independently of the online-aggregation machinery.

import (
	"math"
	"strings"
	"testing"
)

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*scale
}

func TestQ1AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q1")
	if err != nil {
		t.Fatal(err)
	}

	cutoff := MakeDate(1998, 9, 2)
	type acc struct {
		qty, price, disc, charge, discSum float64
		n                                 int64
	}
	ref := map[string]*acc{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.ShipDate > cutoff {
			continue
		}
		key := string([]byte{l.ReturnFlag, '|', l.LineStatus})
		a, ok := ref[key]
		if !ok {
			a = &acc{}
			ref[key] = a
		}
		dp := l.ExtendedPrice * (1 - l.Discount)
		a.qty += l.Quantity
		a.price += l.ExtendedPrice
		a.disc += dp
		a.charge += dp * (1 + l.Tax)
		a.discSum += l.Discount
		a.n++
	}
	if len(truth.Groups) != len(ref) {
		t.Fatalf("group count %d vs reference %d", len(truth.Groups), len(ref))
	}
	for key, a := range ref {
		vals, ok := truth.Groups[key]
		if !ok {
			t.Fatalf("missing group %q", key)
		}
		wants := []float64{a.qty, a.price, a.disc, a.charge,
			a.qty / float64(a.n), a.price / float64(a.n), a.discSum / float64(a.n), float64(a.n)}
		for i, w := range wants {
			if !approxEq(vals[i], w) {
				t.Errorf("group %q col %d = %v, want %v", key, i, vals[i], w)
			}
		}
	}
}

func TestQ6AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q6")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1994, 1, 1), MakeDate(1995, 1, 1)
	var revenue float64
	var n int64
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.ShipDate < lo || l.ShipDate >= hi || l.Discount < 0.05 || l.Discount > 0.07 || l.Quantity >= 24 {
			continue
		}
		revenue += l.ExtendedPrice * l.Discount
		n++
	}
	vals := truth.Groups["all"]
	if !approxEq(vals[0], revenue) || vals[1] != float64(n) {
		t.Fatalf("q6 = %v, want [%v %v]", vals, revenue, n)
	}
}

func TestQ5AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q5")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1994, 1, 1), MakeDate(1995, 1, 1)
	ref := map[string]float64{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		o := ds.Orders[l.OrderKey-1]
		if o.OrderDate < lo || o.OrderDate >= hi {
			continue
		}
		s := ds.Suppliers[l.SuppKey-1]
		nation := ds.Nations[s.NationKey]
		if ds.Regions[nation.RegionKey].Name != "ASIA" {
			continue
		}
		if ds.Customers[o.CustKey-1].NationKey != s.NationKey {
			continue
		}
		ref[nation.Name] += l.ExtendedPrice * (1 - l.Discount)
	}
	if len(truth.Groups) != len(ref) {
		t.Fatalf("group count %d vs reference %d", len(truth.Groups), len(ref))
	}
	for nation, rev := range ref {
		vals, ok := truth.Groups[nation]
		if !ok || !approxEq(vals[0], rev) {
			t.Errorf("q5[%s] = %v, want %v", nation, vals, rev)
		}
	}
}

func TestQ12AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q12")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1994, 1, 1), MakeDate(1995, 1, 1)
	type hl struct{ high, low float64 }
	ref := map[string]*hl{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		mode := l.ShipMode.String()
		if mode != "MAIL" && mode != "SHIP" {
			continue
		}
		if l.CommitDate >= l.ReceiptDate || l.ShipDate >= l.CommitDate ||
			l.ReceiptDate < lo || l.ReceiptDate >= hi {
			continue
		}
		a, ok := ref[mode]
		if !ok {
			a = &hl{}
			ref[mode] = a
		}
		p := ds.Orders[l.OrderKey-1].OrderPriority.String()
		if p == "1-URGENT" || p == "2-HIGH" {
			a.high++
		} else {
			a.low++
		}
	}
	for mode, a := range ref {
		vals, ok := truth.Groups[mode]
		if !ok || vals[0] != a.high || vals[1] != a.low {
			t.Errorf("q12[%s] = %v, want [%v %v]", mode, vals, a.high, a.low)
		}
	}
}

func TestQ22AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q22")
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	hasOrders := map[int32]bool{}
	for i := range ds.Orders {
		hasOrders[ds.Orders[i].CustKey] = true
	}
	var balSum float64
	var balN int
	for i := range ds.Customers {
		if b := ds.Customers[i].AcctBal; b > 0 {
			balSum += b
			balN++
		}
	}
	threshold := balSum / float64(balN)
	refCount := map[string]float64{}
	refBal := map[string]float64{}
	for i := range ds.Customers {
		c := &ds.Customers[i]
		code := c.Phone[:2]
		if !codes[code] || c.AcctBal <= threshold || hasOrders[c.CustKey] {
			continue
		}
		refCount[code]++
		refBal[code] += c.AcctBal
	}
	if len(refCount) == 0 {
		t.Fatal("reference found no qualifying customers; generator broken")
	}
	if len(truth.Groups) != len(refCount) {
		t.Fatalf("group count %d vs reference %d", len(truth.Groups), len(refCount))
	}
	for code, n := range refCount {
		vals, ok := truth.Groups[code]
		if !ok || vals[0] != n || !approxEq(vals[1], refBal[code]) {
			t.Errorf("q22[%s] = %v, want [%v %v]", code, vals, n, refBal[code])
		}
	}
}

func TestQ18AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q18")
	if err != nil {
		t.Fatal(err)
	}
	qty := map[int32]float64{}
	for i := range ds.Lineitems {
		qty[ds.Lineitems[i].OrderKey] += ds.Lineitems[i].Quantity
	}
	var count, totalPrice float64
	for ok, q := range qty {
		if q > 300 {
			count++
			totalPrice += ds.Orders[ok-1].TotalPrice
		}
	}
	vals := truth.Groups["all"]
	if vals[0] != count || !approxEq(vals[1], totalPrice) {
		t.Fatalf("q18 = %v, want [%v %v]", vals, count, totalPrice)
	}
}

func TestQ9ProfitSignAndNations(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q9")
	if err != nil {
		t.Fatal(err)
	}
	for g := range truth.Groups {
		parts := strings.Split(g, "|")
		if len(parts) != 2 {
			t.Fatalf("q9 group key %q not nation|year", g)
		}
		year := parts[1]
		if year < "1992" || year > "1998" {
			t.Errorf("q9 year %q outside the order calendar", year)
		}
	}
}

func TestQ2AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q2")
	if err != nil {
		t.Fatal(err)
	}
	var minCost float64 = 1e18
	var count, balSum float64
	for i := range ds.PartSupps {
		ps := &ds.PartSupps[i]
		p := ds.Parts[ps.PartKey-1]
		if p.Size != 15 || !strings.HasSuffix(p.Type, "BRASS") {
			continue
		}
		s := ds.Suppliers[ps.SuppKey-1]
		if ds.Regions[ds.Nations[s.NationKey].RegionKey].Name != "EUROPE" {
			continue
		}
		if ps.SupplyCost < minCost {
			minCost = ps.SupplyCost
		}
		count++
		balSum += s.AcctBal
	}
	vals := truth.Groups["europe-brass"]
	if !approxEq(vals[0], minCost) || vals[1] != count || !approxEq(vals[2], balSum/count) {
		t.Fatalf("q2 = %v, want [%v %v %v]", vals, minCost, count, balSum/count)
	}
}

func TestQ4AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q4")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1993, 7, 1), MakeDate(1993, 10, 1)
	qualifying := map[int32]bool{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.CommitDate >= l.ReceiptDate {
			continue
		}
		o := ds.Orders[l.OrderKey-1]
		if o.OrderDate < lo || o.OrderDate >= hi {
			continue
		}
		qualifying[l.OrderKey] = true
	}
	ref := map[string]float64{}
	for ok := range qualifying {
		ref[ds.Orders[ok-1].OrderPriority.String()]++
	}
	if len(truth.Groups) != len(ref) {
		t.Fatalf("group count %d vs reference %d", len(truth.Groups), len(ref))
	}
	for pri, n := range ref {
		vals, found := truth.Groups[pri]
		if !found || vals[0] != n {
			t.Errorf("q4[%s] = %v, want %v", pri, vals, n)
		}
	}
}

func TestQ10AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q10")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1993, 10, 1), MakeDate(1994, 1, 1)
	refRev := map[string]float64{}
	refN := map[string]float64{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.ReturnFlag != 'R' {
			continue
		}
		o := ds.Orders[l.OrderKey-1]
		if o.OrderDate < lo || o.OrderDate >= hi {
			continue
		}
		nation := ds.Nations[ds.Customers[o.CustKey-1].NationKey].Name
		refRev[nation] += l.ExtendedPrice * (1 - l.Discount)
		refN[nation]++
	}
	for nation, rev := range refRev {
		vals, ok := truth.Groups[nation]
		if !ok || !approxEq(vals[0], rev) || vals[1] != refN[nation] {
			t.Errorf("q10[%s] = %v, want [%v %v]", nation, vals, rev, refN[nation])
		}
	}
}

func TestQ11AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q11")
	if err != nil {
		t.Fatal(err)
	}
	var value, n float64
	for i := range ds.PartSupps {
		ps := &ds.PartSupps[i]
		if ds.Nations[ds.Suppliers[ps.SuppKey-1].NationKey].Name != "GERMANY" {
			continue
		}
		value += ps.SupplyCost * float64(ps.AvailQty)
		n++
	}
	vals := truth.Groups["germany"]
	if !approxEq(vals[0], value) || vals[1] != n {
		t.Fatalf("q11 = %v, want [%v %v]", vals, value, n)
	}
}

func TestQ14AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q14")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1995, 9, 1), MakeDate(1995, 10, 1)
	var promo, total float64
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.ShipDate < lo || l.ShipDate >= hi {
			continue
		}
		rev := l.ExtendedPrice * (1 - l.Discount)
		total += rev
		if strings.HasPrefix(ds.Parts[l.PartKey-1].Type, "PROMO") {
			promo += rev
		}
	}
	vals := truth.Groups["all"]
	if !approxEq(vals[0], promo) || !approxEq(vals[1], total) {
		t.Fatalf("q14 = %v, want [%v %v]", vals, promo, total)
	}
}

func TestQ16AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q16")
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int32]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}
	ref := map[string]float64{}
	for i := range ds.PartSupps {
		ps := &ds.PartSupps[i]
		p := ds.Parts[ps.PartKey-1]
		if p.Brand == "Brand#45" || strings.HasPrefix(p.Type, "MEDIUM POLISHED") || !sizes[p.Size] {
			continue
		}
		if strings.Contains(ds.Suppliers[ps.SuppKey-1].Comment, "Customer Complaints") {
			continue
		}
		ref[p.Brand]++
	}
	if len(truth.Groups) != len(ref) {
		t.Fatalf("group count %d vs reference %d", len(truth.Groups), len(ref))
	}
	for brand, n := range ref {
		vals, ok := truth.Groups[brand]
		if !ok || vals[0] != n {
			t.Errorf("q16[%s] = %v, want %v", brand, vals, n)
		}
	}
}

func TestQ20AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q20")
	if err != nil {
		t.Fatal(err)
	}
	var n, qtySum float64
	for i := range ds.PartSupps {
		ps := &ds.PartSupps[i]
		if ps.AvailQty <= 1000 {
			continue
		}
		if !strings.HasPrefix(ds.Parts[ps.PartKey-1].Name, "forest") {
			continue
		}
		if ds.Nations[ds.Suppliers[ps.SuppKey-1].NationKey].Name != "CANADA" {
			continue
		}
		n++
		qtySum += float64(ps.AvailQty)
	}
	if n == 0 {
		t.Skip("no qualifying partsupp rows at this scale/seed")
	}
	vals := truth.Groups["canada-forest"]
	if vals[0] != n || !approxEq(vals[1], qtySum/n) {
		t.Fatalf("q20 = %v, want [%v %v]", vals, n, qtySum/n)
	}
}

func TestQ3AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q3")
	if err != nil {
		t.Fatal(err)
	}
	pivot := MakeDate(1995, 3, 15)
	refRev := map[string]float64{}
	refN := map[string]float64{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.ShipDate <= pivot {
			continue
		}
		o := ds.Orders[l.OrderKey-1]
		if o.OrderDate >= pivot {
			continue
		}
		if ds.Customers[o.CustKey-1].MktSegment != "BUILDING" {
			continue
		}
		refRev[o.OrderPriority.String()] += l.ExtendedPrice * (1 - l.Discount)
		refN[o.OrderPriority.String()]++
	}
	if len(truth.Groups) != len(refRev) {
		t.Fatalf("group count %d vs reference %d", len(truth.Groups), len(refRev))
	}
	for pri, rev := range refRev {
		vals, ok := truth.Groups[pri]
		if !ok || !approxEq(vals[0], rev) || vals[1] != refN[pri] {
			t.Errorf("q3[%s] = %v, want [%v %v]", pri, vals, rev, refN[pri])
		}
	}
}

func TestQ7AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q7")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1995, 1, 1), MakeDate(1997, 1, 1)
	refVol := map[string]float64{}
	refN := map[string]float64{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.ShipDate < lo || l.ShipDate >= hi {
			continue
		}
		sn := ds.Nations[ds.Suppliers[l.SuppKey-1].NationKey].Name
		o := ds.Orders[l.OrderKey-1]
		cn := ds.Nations[ds.Customers[o.CustKey-1].NationKey].Name
		if !(sn == "FRANCE" && cn == "GERMANY") && !(sn == "GERMANY" && cn == "FRANCE") {
			continue
		}
		key := sn + "|" + cn + "|" + itoaYear(l.ShipDate.Year())
		refVol[key] += l.ExtendedPrice * (1 - l.Discount)
		refN[key]++
	}
	if len(truth.Groups) != len(refVol) {
		t.Fatalf("group count %d vs reference %d", len(truth.Groups), len(refVol))
	}
	for key, vol := range refVol {
		vals, ok := truth.Groups[key]
		if !ok || !approxEq(vals[0], vol) || vals[1] != refN[key] {
			t.Errorf("q7[%s] = %v, want [%v %v]", key, vals, vol, refN[key])
		}
	}
}

func itoaYear(y int) string {
	return string([]byte{byte('0' + y/1000), byte('0' + y/100%10), byte('0' + y/10%10), byte('0' + y%10)})
}

func TestQ8AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q8")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1995, 1, 1), MakeDate(1997, 1, 1)
	refBrazil := map[string]float64{}
	refTotal := map[string]float64{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if ds.Parts[l.PartKey-1].Type != "ECONOMY ANODIZED STEEL" {
			continue
		}
		o := ds.Orders[l.OrderKey-1]
		if o.OrderDate < lo || o.OrderDate >= hi {
			continue
		}
		cNation := ds.Nations[ds.Customers[o.CustKey-1].NationKey]
		if ds.Regions[cNation.RegionKey].Name != "AMERICA" {
			continue
		}
		key := itoaYear(o.OrderDate.Year())
		vol := l.ExtendedPrice * (1 - l.Discount)
		refTotal[key] += vol
		if ds.Nations[ds.Suppliers[l.SuppKey-1].NationKey].Name == "BRAZIL" {
			refBrazil[key] += vol
		}
	}
	for key, total := range refTotal {
		vals, ok := truth.Groups[key]
		if !ok || !approxEq(vals[1], total) {
			t.Errorf("q8[%s] total = %v, want %v", key, vals, total)
			continue
		}
		if bz := refBrazil[key]; !approxEq(vals[0], bz) && !(bz == 0 && vals[0] == 0) {
			t.Errorf("q8[%s] brazil = %v, want %v", key, vals[0], bz)
		}
	}
}

func TestQ13AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q13")
	if err != nil {
		t.Fatal(err)
	}
	refN := map[string]float64{}
	refPrice := map[string]float64{}
	for i := range ds.Orders {
		o := &ds.Orders[i]
		if strings.Contains(o.Comment.String(), "special") {
			continue
		}
		nation := ds.Nations[ds.Customers[o.CustKey-1].NationKey].Name
		refN[nation]++
		refPrice[nation] += o.TotalPrice
	}
	for nation, n := range refN {
		vals, ok := truth.Groups[nation]
		if !ok || vals[0] != n || !approxEq(vals[1], refPrice[nation]/n) {
			t.Errorf("q13[%s] = %v, want [%v %v]", nation, vals, n, refPrice[nation]/n)
		}
	}
}

func TestQ15AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q15")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MakeDate(1996, 1, 1), MakeDate(1996, 4, 1)
	refSum := map[string]float64{}
	refMax := map[string]float64{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if l.ShipDate < lo || l.ShipDate >= hi {
			continue
		}
		nation := ds.Nations[ds.Suppliers[l.SuppKey-1].NationKey].Name
		rev := l.ExtendedPrice * (1 - l.Discount)
		refSum[nation] += rev
		if rev > refMax[nation] {
			refMax[nation] = rev
		}
	}
	for nation, sum := range refSum {
		vals, ok := truth.Groups[nation]
		if !ok || !approxEq(vals[0], sum) || !approxEq(vals[1], refMax[nation]) {
			t.Errorf("q15[%s] = %v, want [%v %v]", nation, vals, sum, refMax[nation])
		}
	}
}

func TestQ19AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q19")
	if err != nil {
		t.Fatal(err)
	}
	var rev, n float64
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		if mode := l.ShipMode.String(); mode != "AIR" && mode != "REG AIR" {
			continue
		}
		if l.ShipInstruct.String() != "DELIVER IN PERSON" {
			continue
		}
		p := ds.Parts[l.PartKey-1]
		match := (p.Brand == "Brand#12" && strings.HasPrefix(p.Container, "SM") &&
			l.Quantity >= 1 && l.Quantity <= 11 && p.Size >= 1 && p.Size <= 5) ||
			(p.Brand == "Brand#23" && strings.HasPrefix(p.Container, "MED") &&
				l.Quantity >= 10 && l.Quantity <= 20 && p.Size >= 1 && p.Size <= 10) ||
			(p.Brand == "Brand#34" && strings.HasPrefix(p.Container, "LG") &&
				l.Quantity >= 20 && l.Quantity <= 30 && p.Size >= 1 && p.Size <= 15)
		if !match {
			continue
		}
		rev += l.ExtendedPrice * (1 - l.Discount)
		n++
	}
	vals := truth.Groups["all"]
	if !approxEq(vals[0], rev) || vals[1] != n {
		t.Fatalf("q19 = %v, want [%v %v]", vals, rev, n)
	}
}

func TestQ21AgainstBruteForce(t *testing.T) {
	ds := Generate(0.01, 42)
	cat := NewCatalog(ds, 42)
	truth, err := cat.GroundTruth("q21")
	if err != nil {
		t.Fatal(err)
	}
	type o21 struct {
		supps map[int32]bool
		late  map[int32]bool
	}
	states := map[int32]*o21{}
	for i := range ds.Lineitems {
		l := &ds.Lineitems[i]
		o := ds.Orders[l.OrderKey-1]
		if o.OrderStatus != 'F' {
			continue
		}
		st, ok := states[l.OrderKey]
		if !ok {
			st = &o21{supps: map[int32]bool{}, late: map[int32]bool{}}
			states[l.OrderKey] = st
		}
		st.supps[l.SuppKey] = true
		if l.ReceiptDate > l.CommitDate {
			st.late[l.SuppKey] = true
		}
	}
	var numwait float64
	for _, st := range states {
		if len(st.supps) > 1 && len(st.late) == 1 {
			for sk := range st.late {
				if ds.Nations[ds.Suppliers[sk-1].NationKey].Name == "SAUDI ARABIA" {
					numwait++
				}
			}
		}
	}
	vals := truth.Groups["saudi-arabia"]
	if vals[0] != numwait {
		t.Fatalf("q21 = %v, want %v", vals, numwait)
	}
}
