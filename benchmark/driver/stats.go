package driver

import (
	"bufio"
	"sort"
	"strconv"
	"strings"
)

// Quantile reads the q-quantile (0..1) off an ascending-sorted sample by
// nearest rank; 0 for an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Median sorts a copy of the sample and returns its middle value, the
// mean of the middle two for an even count.
func Median(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ParseProm reads a Prometheus text exposition into series → value. The
// series key keeps its label set, e.g. `rotary_serve_requests_total{op="submit"}`.
func ParseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out
}
