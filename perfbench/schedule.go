package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/lddp/api"
	"repro/lddp/client"
)

// arrival is one open-loop request: when it is due (offset from its
// step's start), what it asks and over which codec.
type arrival struct {
	Step  int
	Due   time.Duration
	Req   api.SolveRequest
	Codec client.Codec
	Key   int // serve-repeat: index into the request set; else -1
}

// Both serve workloads draw request sides from [minSide, maxSide]
// log-uniformly; serve-repeat's set stays within repeatMaxSide.
const (
	minSide       = 64
	maxSide       = 1024
	repeatMaxSide = 256
)

var kinds = []string{api.KindMix, api.KindServe, api.KindCost, api.KindAlign}

// poissonDues places n arrivals over d at rate n/d. The gaps are the
// exponential distribution's quantiles at stratified points, in seeded
// random order, scaled so the last arrival lands before d: the arrivals
// are Poisson-like, and every seed offers the same load.
func poissonDues(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	gaps := make([]float64, n)
	for i := range gaps {
		q := (float64(i) + rng.Float64()) / float64(n)
		gaps[i] = -math.Log(1 - q*0.9999)
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	total := 0.0
	for _, g := range gaps {
		total += g
	}
	dues := make([]time.Duration, n)
	at := 0.0
	for i, g := range gaps {
		dues[i] = time.Duration(at / total * float64(d))
		at += g
	}
	return dues
}

// logTriangular inverts the CDF of the sum of two independent
// uniform[0, l] variables (the log-cells of a table whose two sides are
// log-uniform) at q.
func logTriangular(q, l float64) float64 {
	if q <= 0.5 {
		return l * math.Sqrt(2*q)
	}
	return 2*l - l*math.Sqrt(2*(1-q))
}

// stratifiedShapes draws n table shapes whose sides are independently
// log-uniform in [lo, hi], with the log of the cell count stratified:
// rank i holds the (i+u)/n quantile. The row/column split given the
// cell count is uniform, which is the exact conditional of two
// independent log-uniform sides.
func stratifiedShapes(rng *rand.Rand, n, lo, hi int) [][2]int {
	l := math.Log(float64(hi) / float64(lo))
	out := make([][2]int, n)
	for i := range out {
		t := logTriangular((float64(i)+rng.Float64())/float64(n), l)
		x := math.Max(0, t-l) + rng.Float64()*(math.Min(l, t)-math.Max(0, t-l))
		r := int(math.Round(float64(lo) * math.Exp(x)))
		c := int(math.Round(float64(lo) * math.Exp(t-x)))
		out[i] = [2]int{min(max(r, lo), hi), min(max(c, lo), hi)}
	}
	return out
}

// deck deals one of choices to each of n ranks so that every block of
// len(choices) consecutive ranks holds each choice once, in seeded order:
// the mix is the same at every size.
func deck[T any](rng *rand.Rand, n int, choices []T) []T {
	out := make([]T, 0, n)
	for len(out) < n {
		perm := rng.Perm(len(choices))
		for _, k := range perm {
			out = append(out, choices[k])
		}
	}
	return out[:n]
}

// requestSet builds n distinct cell-returning requests with sides in
// [lo, hi]: kind, mask, codec and strategy dealt by deck across the size
// ranks, workload seeds distinct, inline cost cells on cost tables of at
// most 256x256. Strategies are auto except one parallel and one async in
// every eight.
func requestSet(rng *rand.Rand, n, lo, hi int, seedBase int64) ([]api.SolveRequest, []client.Codec) {
	shapes := stratifiedShapes(rng, n, lo, hi)
	ks := deck(rng, n, kinds)
	masks := deck(rng, n, core.AllDepMasks())
	codecs := deck(rng, n, []client.Codec{client.CodecJSON, client.CodecBinary, client.CodecBinary})
	strategies := deck(rng, n, []string{"parallel", "async", "auto", "auto", "auto", "auto", "auto", "auto"})
	reqs := make([]api.SolveRequest, n)
	for i := range reqs {
		r, c := shapes[i][0], shapes[i][1]
		req := api.SolveRequest{
			Rows: r, Cols: c, Strategy: strategies[i], ReturnCells: true,
			Workload: api.WorkloadSpec{Kind: ks[i], Seed: seedBase + int64(i)},
		}
		if req.Strategy == "auto" {
			req.Strategy = ""
		}
		if ks[i] != api.KindAlign {
			req.Mask = masks[i].String()
		}
		if ks[i] == api.KindCost && r*c <= server.DefaultMaxInlineCells {
			req.Workload.Cells = server.GeneratedCostCells(req.Workload.Seed, r, c)
		}
		reqs[i] = req
	}
	return reqs, codecs
}

// interleave orders n size-ranked items in time so that every stretch of
// consecutive arrivals holds a near-even sample of sizes: rank i goes to
// the slot of the fractional part of u + i/phi (a low-discrepancy
// sequence with a seeded start). Randomly ordered, large requests cluster
// by chance, and how often they do would move every latency figure from
// one seed to the next.
func interleave(rng *rand.Rand, n int) []int {
	const invPhi = 0.6180339887498949
	u := rng.Float64()
	key := make([]float64, n)
	order := make([]int, n)
	for i := range order {
		_, key[i] = math.Modf(u + float64(i)*invPhi)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	return order
}

// uniqueSchedule is serve-unique's arrivals: rates[k]*step requests per
// step, never repeating, sizes interleaved in time, at Poisson-like due
// times.
func uniqueSchedule(seed int64, rates []float64, step time.Duration) [][]arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]arrival, len(rates))
	for k, rate := range rates {
		n := int(math.Round(rate * step.Seconds()))
		reqs, codecs := requestSet(rng, n, minSide, maxSide, seed*10_000_000+int64(k)*1_000_000)
		order := interleave(rng, n)
		dues := poissonDues(rng, n, step)
		for i, j := range order {
			out[k] = append(out[k], arrival{Step: k, Due: dues[i], Req: reqs[j], Codec: codecs[j], Key: -1})
		}
	}
	return out
}

// repeatSetSize is the number of distinct serve-repeat requests.
const repeatSetSize = 32

// repeatSet is serve-repeat's fixed request set (sides 64..256).
func repeatSet(seed int64) []api.SolveRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	reqs, _ := requestSet(rng, repeatSetSize, minSide, repeatMaxSide, seed*1_000)
	return reqs
}

// zipfCounts splits n draws over m keys in proportion to 1/(k+1)^s,
// by largest remainder, so every seed sees the same popularity curve.
func zipfCounts(n, m int, s float64) []int {
	w := make([]float64, m)
	total := 0.0
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	counts := make([]int, m)
	rem := make([]float64, m)
	given := 0
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		given += counts[k]
	}
	for ; given < n; given++ {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// popularity maps Zipf rank to the size rank of the set member drawn at
// it. It is the same permutation for every seed: a cache hit's cost is
// its response size, so a seed that made a large table the hottest key
// would move every latency figure.
var popularity = rand.New(rand.NewSource(1)).Perm(repeatSetSize)

// repeatSchedule is serve-repeat's arrivals: per step, rates[k]*step
// draws over the request set with Zipf(1.1) popularity, two in three on
// JSON and one in three on binary frames. A JSON hit costs some 30 times
// a binary one, so an even split would put the median in the gap between
// the two codecs' latencies; this split puts it among the JSON hits.
func repeatSchedule(seed int64, rates []float64, step time.Duration) [][]arrival {
	rng := rand.New(rand.NewSource(seed))
	reqs := repeatSet(seed)
	rank := popularity
	out := make([][]arrival, len(rates))
	for k, rate := range rates {
		n := int(math.Round(rate * step.Seconds()))
		var drawn []int
		for r, c := range zipfCounts(n, len(reqs), 1.1) {
			for ; c > 0; c-- {
				drawn = append(drawn, rank[r])
			}
		}
		// The set is in size order, so sorting the draws by key ranks
		// them by size for interleave.
		sort.Ints(drawn)
		keys := make([]int, n)
		for i, j := range interleave(rng, n) {
			keys[i] = drawn[j]
		}
		codecs := deck(rng, n, []client.Codec{client.CodecJSON, client.CodecJSON, client.CodecBinary})
		dues := poissonDues(rng, n, step)
		for i, key := range keys {
			out[k] = append(out[k], arrival{Step: k, Due: dues[i], Req: reqs[key], Codec: codecs[i], Key: key})
		}
	}
	return out
}
