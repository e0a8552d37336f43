package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// tail is one reported tail percentile.
type tail struct {
	// P is the percentile reported (0..100).
	P float64
	// Value is the sample at that percentile.
	Value float64
	// N is the sample count.
	N int
}

// tailPercentile applies the reporting rule: the wanted percentile
// (e.g. 90), lowered to the highest percentile that still has at least
// minTail samples beyond it. With too few samples for any such
// percentile it reports the maximum (P = 100), so the number is always
// honest about what it is.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Rank k (1-based) has n-k samples beyond it.
	k := int(math.Ceil(want / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minTail {
		k = n - minTail
	}
	if k < 1 {
		return tail{P: 100, Value: s[n-1], N: n}
	}
	return tail{P: 100 * float64(k) / float64(n), Value: s[k-1], N: n}
}

// namePattern is the shape every metric name must have.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measurements by name, refusing malformed or
// duplicate names.
type metricSet struct {
	m     map[string]metric
	order []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) put(name, unit string, v float64) {
	if !namePattern.MatchString(name) {
		panic("perfbench: bad metric name " + strconv.Quote(name))
	}
	if _, dup := s.m[name]; dup {
		panic("perfbench: duplicate metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.m[name] = metric{Value: v, Unit: unit}
	s.order = append(s.order, name)
}

// names returns the metric names in insertion order.
func (s *metricSet) names() []string { return append([]string(nil), s.order...) }

// share renders v as a fraction of base (0 when base is 0).
func share(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

// table renders the set as aligned "name value unit" lines.
func (s *metricSet) table() string {
	var b strings.Builder
	for _, name := range s.order {
		m := s.m[name]
		fmt.Fprintf(&b, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return b.String()
}
