package main

import (
	"context"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/lddp/api"
	"repro/lddp/client"
)

// outcome is what one open-loop request returned, kept for the oracle
// check after the timed phase.
type outcome struct {
	Digest      string // the server's digest
	CellsDigest string // digest of the returned cells; "" if none came back
	Err         error
}

// stepResult summarises one rate step.
type stepResult struct {
	Achieved float64       `json:"achieved_rps"` // requests completed per second of Span
	Span     time.Duration `json:"span_ns"`      // the step's load time plus its last request's latency
	Backlog  bool          `json:"backlog"`      // the dispatch queue grew over the step
}

// segment is how long the interleaved r1/r2 phase stays at one rate
// before switching. Host speed drifts over seconds; alternating the two
// rates every half second exposes both to the same drift.
const segment = 500 * time.Millisecond

// phases lays the steps out in time: r1 and r2 alternate segment by
// segment in one phase, then r3 runs alone. r3 is the saturation step:
// every request is due at once, so the callers send back to back and
// the step measures the stack's throughput. Dues become offsets from the
// start of their phase.
func phases(steps [][]arrival) [][]arrival {
	var mixed []arrival
	for k, st := range steps[:2] {
		for _, a := range st {
			slot := int64(a.Due / segment)
			a.Due = time.Duration(2*slot+int64(k))*segment + a.Due%segment
			mixed = append(mixed, a)
		}
	}
	sort.SliceStable(mixed, func(i, j int) bool { return mixed[i].Due < mixed[j].Due })
	sat := append([]arrival(nil), steps[2]...)
	for i := range sat {
		sat[i].Due = 0
	}
	return [][]arrival{mixed, sat}
}

// openLoop sends each phase's arrivals at their due times through at
// most nproc callers sharing the clients' one connection pool. Latency
// runs from a request's due time to its completion, so time a request
// waits for a free caller counts. Phases run back to back; each waits
// for its last request before the next starts. The last phase is the
// saturation step: its callers take no new request once stepDur has
// passed, and the requests left unsent are dropped from the run. The
// arrivals sent, their samples and outcomes come back in dispatch
// order; results has one entry per step, r1 and r2 each offering load
// for stepDur.
func openLoop(ctx context.Context, plan [][]arrival, stepDur time.Duration, clients map[client.Codec]*client.Client, sp *Spans) (arrivals []arrival, samples []sample, outcomes []outcome, results []stepResult) {
	callers := runtime.NumCPU()
	// One P beyond the cores keeps the generator and callers runnable
	// while the engine's workers hold every core; the layers under test
	// still size themselves to min(GOMAXPROCS, NumCPU) = the cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(callers + 1))
	var done []time.Time
	var depth []int
	var dues []time.Time
	var id int64
	sent := make([]bool, 0, len(plan[0])+len(plan[1]))
	var satStart time.Time
	for p, phase := range plan {
		saturate := p == len(plan)-1
		type job struct {
			i         int
			due, woke time.Time
			id        int64
		}
		base := len(arrivals)
		arrivals = append(arrivals, phase...)
		samples = append(samples, make([]sample, len(phase))...)
		outcomes = append(outcomes, make([]outcome, len(phase))...)
		done = append(done, make([]time.Time, len(phase))...)
		sent = append(sent, make([]bool, len(phase))...)
		depth = append(depth, make([]int, len(phase))...)
		dues = append(dues, make([]time.Time, len(phase))...)
		// Sized to the phase, so the dispatcher never blocks: a request
		// queued here is backlog the system under test owes.
		jobs := make(chan job, len(phase))
		start := time.Now()
		stop := start.Add(stepDur)
		if saturate {
			satStart = start
		}
		var wg sync.WaitGroup
		wg.Add(callers)
		for c := 0; c < callers; c++ {
			go func() {
				defer wg.Done()
				for j := range jobs {
					if saturate && time.Now().After(stop) {
						continue
					}
					a := &arrivals[j.i]
					traced := sp != nil && j.i%2 == 0
					var getConn, gotConn time.Time
					cctx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
						GetConn: func(string) { getConn = time.Now() },
						GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
					})
					t0 := time.Now()
					resp, err := clients[a.Codec].Solve(cctx, &a.Req)
					end := time.Now()
					s := sample{Step: a.Step, Lat: end.Sub(j.due), Call: end.Sub(t0), Cells: int64(a.Req.Rows) * int64(a.Req.Cols), Traced: traced, GenLate: j.woke.Sub(j.due)}
					if !gotConn.IsZero() {
						s.ConnWait = gotConn.Sub(getConn)
					}
					o := outcome{Err: err}
					if err != nil {
						s.Failed = true
					} else {
						s.ServerMS = resp.ElapsedMS
						o.Digest = resp.Digest
						if resp.Cells != nil {
							o.CellsDigest = flatDigest(resp.Rows, resp.Cols, resp.Cells)
						}
					}
					if traced {
						root := sp.Add("request", j.id, -1, j.due, end)
						sp.Add("bench.queue", j.id, root, j.due, t0)
						sp.Add("client.Solve", j.id, root, t0, end)
					}
					samples[j.i], outcomes[j.i], done[j.i], sent[j.i] = s, o, end, true
				}
			}()
		}
		for i := range phase {
			due := start.Add(phase[i].Due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			id++
			jobs <- job{i: base + i, due: due, woke: time.Now(), id: id}
			depth[base+i] = len(jobs)
			dues[base+i] = due
		}
		close(jobs)
		wg.Wait()
	}
	for k := 0; k < 3; k++ {
		var n int
		var stepDepth []int
		var lastDue, lastDone time.Time
		for i, a := range arrivals {
			if a.Step != k || !sent[i] {
				continue
			}
			n++
			stepDepth = append(stepDepth, depth[i])
			if dues[i].After(lastDue) {
				lastDue = dues[i]
			}
			if done[i].After(lastDone) {
				lastDone = done[i]
			}
		}
		span := stepDur + max(lastDone.Sub(lastDue), 0)
		if k == 2 {
			span = lastDone.Sub(satStart)
		}
		results = append(results, stepResult{Achieved: float64(n) / span.Seconds(), Span: span, Backlog: k == 2 || growing(stepDepth, callers)})
	}
	// Keep only what was sent.
	n := 0
	for i := range arrivals {
		if sent[i] {
			arrivals[n], samples[n], outcomes[n] = arrivals[i], samples[i], outcomes[i]
			n++
		}
	}
	return arrivals[:n], samples[:n], outcomes[:n], results
}

// growing reports a dispatch queue that grew over a step: its mean depth
// over the last third exceeds twice the first third's plus the caller
// count. A stable queue fluctuates around one mean; an overloaded one
// climbs linearly.
func growing(depth []int, callers int) bool {
	n := len(depth) / 3
	if n == 0 {
		return false
	}
	mean := func(v []int) float64 {
		t := 0
		for _, x := range v {
			t += x
		}
		return float64(t) / float64(len(v))
	}
	return mean(depth[len(depth)-n:]) > 2*mean(depth[:n])+float64(callers)
}

// checkOutcome compares one request's outcome against its oracle digest.
// A request that should have returned its cells must have, and they
// must digest to the oracle too.
func checkOutcome(o outcome, oracle string, wantCells bool) bool {
	if o.Err != nil {
		return false
	}
	if wantCells {
		return o.Digest == oracle && o.CellsDigest == oracle
	}
	return o.Digest == oracle && o.CellsDigest == ""
}

// expectCells reports whether a default server returns the cells of req.
func expectCells(req *api.SolveRequest) bool {
	return req.ReturnCells && req.Rows*req.Cols <= server.DefaultMaxResponseCells
}
