package driver

import "testing"

func TestParseProm(t *testing.T) {
	m := ParseProm("# HELP x y\n# TYPE x counter\nx 3\nrotary_serve_requests_total{op=\"submit\"} 1500\nh_bucket{le=\"+Inf\"} 7\n")
	if m["x"] != 3 || m[`rotary_serve_requests_total{op="submit"}`] != 1500 || m[`h_bucket{le="+Inf"}`] != 7 {
		t.Errorf("parsed %v", m)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := Quantile(s, 0.9); q != 9 {
		t.Errorf("p90 = %g", q)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
	if Quantile(nil, 0.5) != 0 || Median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}
