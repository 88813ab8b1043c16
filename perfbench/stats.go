package main

import (
	"math"
	"sort"
	"time"
)

// Metric is one reported number: a value and its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric in the catalog BENCHMARK.json mirrors.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only; 0 for per-layer metrics
}

// Latencies is a sample of request latencies.
type Latencies []time.Duration

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (l Latencies) sorted() Latencies {
	s := append(Latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// p50 is the median (the mean of the middle two for an even count).
func (l Latencies) p50() time.Duration {
	s := l.sorted()
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// Tail is the highest percentile with at least ten samples beyond it.
type Tail struct {
	Value   time.Duration `json:"value_ns"`
	Pct     float64       `json:"percentile"` // the percentile the value sits at
	Samples int           `json:"samples"`    // the sample count it was taken from
}

// tail returns the largest sample with at least tailBeyond samples above
// it: the (n-10)-th smallest, at percentile 100*(n-10)/n. ok is false
// when fewer than tailBeyond+1 samples exist.
func (l Latencies) tail() (t Tail, ok bool) {
	n := len(l)
	if n < tailBeyond+1 {
		return Tail{Samples: n}, false
	}
	s := l.sorted()
	return Tail{Value: s[n-tailBeyond-1], Pct: 100 * float64(n-tailBeyond) / float64(n), Samples: n}, true
}

// quantile is the nearest-rank q-quantile (0 < q <= 1).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, answering 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
