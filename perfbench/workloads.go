package main

import (
	"context"
	"fmt"
	"math/bits"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/lddp/api"
	"repro/lddp/client"
)

type workloadFunc func(ctx context.Context, rc *runCtx) (*runOut, error)

var workloads = map[string]workloadFunc{
	"engine-2k":    runEngine,
	"serve-unique": runServeUnique,
	"serve-repeat": runServeRepeat,
	"fleet-2k":     runFleet,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Open-loop step rates (requests per second) and the tail-latency limit
// a step must meet to count as sustained. r1 and r2 sit well below the
// reference host's knee, so sustained_rps is r2's achieved rate there
// and drops only when a change moves the knee below r2. The third rate
// sizes the saturation step's request pool: more than twice what the
// reference host completes, so the callers never run dry.
var (
	uniqueRates = []float64{15, 30, 300}
	uniqueLimit = 250 * time.Millisecond
	repeatRates = []float64{20, 40, 600}
	repeatLimit = 50 * time.Millisecond
)

// inputBytes sums the result-table bytes of reqs and the bytes a sweep
// of them moves, computed as one 8-byte write plus one 8-byte read per
// contributing neighbour per cell.
func inputBytes(reqs []api.SolveRequest) (table, moved int64) {
	for i := range reqs {
		r := &reqs[i]
		kind := r.Workload.Kind
		m, err := api.ResolveMask(kind, r.Mask)
		if err != nil {
			continue
		}
		cells := int64(r.Rows) * int64(r.Cols) * 8
		table += cells
		moved += cells * int64(1+bits.OnesCount8(uint8(m)))
	}
	return table, moved
}

func tableReqs(ts []*table) []api.SolveRequest {
	var out []api.SolveRequest
	for _, t := range ts {
		out = append(out, t.Req)
	}
	return out
}

// closedTables builds the engine-2k tables and their oracle digests,
// outside any timed region.
func closedTables(seed int64) ([]*table, error) {
	ts, err := buildTables(seed)
	if err != nil {
		return nil, err
	}
	return ts, addOracles(ts)
}

// runEngine is engine-2k: one caller, back-to-back lddp.Solve (Auto)
// over the six tables. Set-up is a warm-up solve of the first table.
func runEngine(ctx context.Context, rc *runCtx) (*runOut, error) {
	tables, err := closedTables(rc.seed)
	if err != nil {
		return nil, err
	}
	_, setup, err := timedSetups(func() (struct{}, error) {
		d, err := engineSolve(ctx, tables[0])
		if err == nil && d != tables[0].Oracle {
			err = fmt.Errorf("warm-up digest %s, oracle %s", d, tables[0].Oracle)
		}
		return struct{}{}, err
	}, func(struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	samples, mism, wall, err := closedLoop(ctx, tables, rc.dur, rc.spans, "lddp.Solve", engineSolve)
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}
	tb, moved := inputBytes(tableReqs(tables))
	return &runOut{Samples: samples, Wall: wall, Mismatches: mism, Setup: setup, PeakHeap: peak, Tables: tables, TableBytes: tb, BytesMoved: moved}, nil
}

// warmReq is the small request every serve and fleet set-up sends to
// warm the stack: a cell-returning 256x256 mix table.
func warmReq(seed int64) api.SolveRequest {
	return api.SolveRequest{Rows: 256, Cols: 256, Mask: "W,N", ReturnCells: true,
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: -seed - 1}}
}

// runFleet is fleet-2k: one caller sending the six tables to POST
// /v1/fleet/solve on a coordinator over two 1-worker nodes. Set-up boots
// the nodes and coordinator and sends one warm-up fleet solve.
func runFleet(ctx context.Context, rc *runCtx) (*runOut, error) {
	tables, err := closedTables(rc.seed)
	if err != nil {
		return nil, err
	}
	warm := warmReq(rc.seed)
	warmOracle, err := requestOracle(&warm)
	if err != nil {
		return nil, err
	}
	hc, tr := loadHTTP()
	defer tr.CloseIdleConnections()
	fl, setup, err := timedSetups(func() (*fleetStack, error) {
		f, err := startFleet(2, 1)
		if err != nil {
			return nil, err
		}
		d, err := fleetSolver(hc, f.lb.url)(ctx, &table{Name: "warm-up", Req: warm})
		if err == nil && d != warmOracle {
			err = fmt.Errorf("fleet warm-up digest %s, oracle %s", d, warmOracle)
		}
		if err != nil {
			f.stop()
			return nil, err
		}
		return f, nil
	}, func(f *fleetStack) error { tr.CloseIdleConnections(); return f.stop() })
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	samples, mism, wall, err := closedLoop(ctx, tables, rc.dur, rc.spans, "http.fleet.solve", fleetSolver(hc, fl.lb.url))
	peak := heap.Stop()
	tr.CloseIdleConnections()
	if serr := fl.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	tb, moved := inputBytes(tableReqs(tables))
	return &runOut{Samples: samples, Wall: wall, Mismatches: mism, Setup: setup, PeakHeap: peak, Tables: tables, TableBytes: tb, BytesMoved: moved}, nil
}

// requestOracle digests a request's instance with the sequential oracle.
func requestOracle(req *api.SolveRequest) (string, error) {
	p, err := server.BuildProblem(req)
	if err != nil {
		return "", err
	}
	return oracleDigest(p)
}

// oracles digests many requests on every core; it runs outside timed
// phases only.
func oracles(reqs []*api.SolveRequest) ([]string, error) {
	out := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = requestOracle(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveStack is one default lddpd node with a JSON and a binary client
// sharing one connection pool.
type serveStack struct {
	node    *node
	tr      *http.Transport
	clients map[client.Codec]*client.Client
}

func (s *serveStack) stop() error {
	s.tr.CloseIdleConnections()
	return s.node.stop()
}

// bootServe boots a default node (2 workers on this host's default,
// 64 MiB cache) and warms it with the warm-up request over both codecs,
// then sends each of prefill once.
func bootServe(ctx context.Context, warm api.SolveRequest, warmOracle string, prefill []api.SolveRequest, prefillOracles []string) (*serveStack, error) {
	n, err := startNode(server.Config{})
	if err != nil {
		return nil, err
	}
	hc, tr := loadHTTP()
	s := &serveStack{node: n, tr: tr, clients: map[client.Codec]*client.Client{}}
	for _, c := range []client.Codec{client.CodecJSON, client.CodecBinary} {
		if s.clients[c], err = newClient(n.lb.url, hc, c); err != nil {
			s.stop()
			return nil, err
		}
	}
	check := func(req *api.SolveRequest, oracle string, c client.Codec) error {
		resp, err := s.clients[c].Solve(ctx, req)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		o := outcome{Digest: resp.Digest}
		if resp.Cells != nil {
			o.CellsDigest = flatDigest(resp.Rows, resp.Cols, resp.Cells)
		}
		if !checkOutcome(o, oracle, expectCells(req)) {
			return fmt.Errorf("warm-up %dx%d: digest %s, oracle %s", req.Rows, req.Cols, resp.Digest, oracle)
		}
		return nil
	}
	for _, c := range []client.Codec{client.CodecJSON, client.CodecBinary} {
		if err := check(&warm, warmOracle, c); err != nil {
			s.stop()
			return nil, err
		}
	}
	for i := range prefill {
		if err := check(&prefill[i], prefillOracles[i], client.Codec(i%2)); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// runOpen runs an open-loop serve workload's steps against a booted
// stack and returns the samples with their arrivals and outcomes, all in
// dispatch order.
func runOpen(ctx context.Context, rc *runCtx, steps [][]arrival, limit time.Duration, boot func() (*serveStack, error)) (*runOut, []arrival, []outcome, error) {
	s, setup, err := timedSetups(boot, (*serveStack).stop)
	if err != nil {
		return nil, nil, nil, err
	}
	before := snapshotNode(s.node)
	heap := startHeapPeak()
	arrivals, samples, outcomes, results := openLoop(ctx, phases(steps), rc.dur/time.Duration(len(steps)), s.clients, rc.spans)
	peak := heap.Stop()
	after := snapshotNode(s.node)
	if err := s.stop(); err != nil {
		return nil, nil, nil, err
	}
	out := &runOut{Samples: samples, Steps: results, Limit: limit, Setup: setup, PeakHeap: peak}
	if rc.spans != nil {
		out.Serve = serveLayer(before, after, samples)
	}
	var reqs []api.SolveRequest
	for _, a := range arrivals {
		reqs = append(reqs, a.Req)
	}
	out.TableBytes, out.BytesMoved = inputBytes(reqs)
	return out, arrivals, outcomes, nil
}

// markMismatches fails every sample whose outcome disagrees with its
// oracle digest.
func markMismatches(out *runOut, arrivals []arrival, outcomes []outcome, oracleOf func(i int) string) {
	for i, a := range arrivals {
		o := outcomes[i]
		if o.Err == nil && !checkOutcome(o, oracleOf(i), expectCells(&a.Req)) {
			out.Mismatches++
			out.Samples[i].Failed = true
			fmt.Fprintf(stderr, "perfbench: step %d request %dx%d %s: digest %s cells %s, oracle %s\n",
				a.Step+1, a.Req.Rows, a.Req.Cols, a.Req.Workload.Kind, o.Digest, o.CellsDigest, oracleOf(i))
		}
	}
}

// runServeUnique is serve-unique: three open-loop steps of never
// repeating requests against a default node. Every result is checked
// against the oracle after the timed phase.
func runServeUnique(ctx context.Context, rc *runCtx) (*runOut, error) {
	steps := uniqueSchedule(rc.seed, uniqueRates, rc.dur/time.Duration(len(uniqueRates)))
	warm := warmReq(rc.seed)
	warmOracle, err := requestOracle(&warm)
	if err != nil {
		return nil, err
	}
	out, arrivals, outcomes, err := runOpen(ctx, rc, steps, uniqueLimit, func() (*serveStack, error) {
		return bootServe(ctx, warm, warmOracle, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	reqs := make([]*api.SolveRequest, len(arrivals))
	for i := range arrivals {
		reqs[i] = &arrivals[i].Req
	}
	want, err := oracles(reqs)
	if err != nil {
		return nil, err
	}
	markMismatches(out, arrivals, outcomes, func(i int) string { return want[i] })
	return out, nil
}

// runServeRepeat is serve-repeat: three open-loop steps drawing
// Zipf-style from a fixed set of 32 small cell-returning requests.
// Set-up warms the stack and stores every set member in the cache once,
// so the timed phase reads the cache.
func runServeRepeat(ctx context.Context, rc *runCtx) (*runOut, error) {
	steps := repeatSchedule(rc.seed, repeatRates, rc.dur/time.Duration(len(repeatRates)))
	set := repeatSet(rc.seed)
	warm := warmReq(rc.seed)
	reqs := []*api.SolveRequest{&warm}
	for i := range set {
		reqs = append(reqs, &set[i])
	}
	want, err := oracles(reqs)
	if err != nil {
		return nil, err
	}
	out, arrivals, outcomes, err := runOpen(ctx, rc, steps, repeatLimit, func() (*serveStack, error) {
		return bootServe(ctx, warm, want[0], set, want[1:])
	})
	if err != nil {
		return nil, err
	}
	markMismatches(out, arrivals, outcomes, func(i int) string { return want[1+arrivals[i].Key] })
	out.TableBytes, out.BytesMoved = inputBytes(set)
	return out, nil
}
