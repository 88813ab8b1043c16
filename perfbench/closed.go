package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
)

// sample is one completed (or failed) request of a workload.
type sample struct {
	Step   int           // open loop: rate step; closed loop: half of the run
	Lat    time.Duration // from due time (open loop) or call (closed loop) to completion
	Call   time.Duration // the client call alone
	Cells  int64
	Failed bool
	Traced bool
	// Open-loop and client-side detail; zero where it does not apply.
	ServerMS float64
	ConnWait time.Duration
	GenLate  time.Duration
}

// solveFunc runs one table through the layer under test and returns the
// digest the layer reported.
type solveFunc func(ctx context.Context, t *table) (string, error)

// minPasses keeps each half of a closed-loop run at two passes or more,
// so r1 and r2 hold at least tailBeyond+1 samples over the six tables.
const minPasses = 4

// closedLoop is one caller sending the tables back to back, in complete
// passes, until d has elapsed. Even passes are step 0 and odd passes
// step 1: two interleaved halves that see the same host drift, so r1
// and r2 of a closed loop check the run against itself. With spans set,
// the even passes are traced.
func closedLoop(ctx context.Context, tables []*table, d time.Duration, sp *Spans, layer string, solve solveFunc) ([]sample, int, time.Duration, error) {
	var out []sample
	var mismatches int
	start := time.Now()
	prev := start
	var id int64
	for pass := 0; pass < minPasses || time.Since(start) < d; pass++ {
		traced := sp != nil && pass%2 == 0
		for _, t := range tables {
			id++
			t0 := time.Now()
			late := t0.Sub(prev)
			digest, err := solve(ctx, t)
			t1 := time.Now()
			prev = t1
			if traced {
				root := sp.Add("request", id, -1, t0, t1)
				sp.Add(layer, id, root, t0, t1)
			}
			s := sample{Step: pass % 2, Lat: t1.Sub(t0), Call: t1.Sub(t0), Cells: t.cells(), Traced: traced, GenLate: late}
			if err != nil {
				s.Failed = true
			} else if digest != t.Oracle {
				s.Failed = true
				mismatches++
			}
			out = append(out, s)
			if ctx.Err() != nil {
				return nil, 0, 0, ctx.Err()
			}
		}
	}
	return out, mismatches, time.Since(start), nil
}

// engineSolve is engine-2k's layer: lddp.Solve with the Auto strategy.
func engineSolve(ctx context.Context, t *table) (string, error) {
	res, err := lddp.Solve(ctx, t.Prob)
	if err != nil {
		return "", err
	}
	return server.DigestGrid(res.Grid), nil
}

// fleetSolver posts the table's request to a fleet coordinator's
// POST /v1/fleet/solve and returns the assembled-table digest.
func fleetSolver(hc *http.Client, url string) solveFunc {
	return func(ctx context.Context, t *table) (string, error) {
		body, err := json.Marshal(&t.Req)
		if err != nil {
			return "", err
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/fleet/solve", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := hc.Do(hreq)
		if err != nil {
			return "", err
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			var eb api.ErrorBody
			_ = json.NewDecoder(hresp.Body).Decode(&eb) // best effort: the status alone is the failure
			return "", fmt.Errorf("fleet solve %s: HTTP %d: %s", t.Name, hresp.StatusCode, eb.Error)
		}
		var resp api.SolveResponse
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			return "", fmt.Errorf("fleet solve %s: decoding response: %w", t.Name, err)
		}
		return resp.Digest, nil
	}
}
