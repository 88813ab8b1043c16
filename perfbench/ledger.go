package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// ledgerRows are the ledger's rows in run order, each a call into one
// layer's public function.
var ledgerRows = []string{
	"core.floor",
	"core.parallel.w1", "core.parallel.wmax",
	"core.tiled.w1", "core.tiled.wmax",
	"core.async.w1", "core.async.wmax",
	"lddp.solve",
	"sched.lone",
	"server.handler.json", "server.handler.binary",
	"client.json", "client.binary",
	"fleet.n2",
}

// selfTimes derive a layer's own cost as the difference between the row
// that adds the layer and the row beneath it.
var selfTimes = []struct{ name, outer, inner string }{
	{"sched.self_ms", "sched.lone", "core.parallel.wmax"},
	{"server.self_ms", "server.handler.json", "sched.lone"},
	{"client.self_ms", "client.json", "server.handler.json"},
	{"fleet.self_ms", "fleet.n2", "client.binary"},
}

// ledgerRow is one row's cost over the six tables.
type ledgerRow struct {
	MS      float64 // summed wall time of one solve of each table
	AllocMB float64 // bytes allocated process-wide during the row
}

// ledgerOut is a ledger pass: its rows plus the serve and fleet counters
// its client and fleet rows produced.
type ledgerOut struct {
	Rows       map[string]ledgerRow
	Calls      int
	Mismatches int
	Failed     int
	Serve      map[string]Metric // from the client rows' node
	Fleet      map[string]Metric // from the fleet.n2 row
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// wmax is the worker count of a native executor's default: the lesser of
// GOMAXPROCS and the core count.
func wmax() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// runLedger runs every table once through every row and records one
// span per call under a root span per row; row times are read back from
// those spans.
func runLedger(ctx context.Context, tables []*table, sp *Spans) (*ledgerOut, error) {
	node, err := startNode(server.Config{})
	if err != nil {
		return nil, err
	}
	defer node.stop()
	fl, err := startFleet(2, 1)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	hc, tr := loadHTTP()
	defer tr.CloseIdleConnections()
	clients := map[client.Codec]*client.Client{}
	for _, c := range []client.Codec{client.CodecJSON, client.CodecBinary} {
		if clients[c], err = newClient(node.lb.url, hc, c, client.WithCacheControl("no-store")); err != nil {
			return nil, err
		}
	}
	sc, err := lddp.NewScheduler()
	if err != nil {
		return nil, err
	}
	defer sc.Close()

	grid := func(g *lddp.Grid[int64], err error) (string, error) {
		if err != nil {
			return "", err
		}
		return server.DigestGrid(g), nil
	}
	var clientSamples []sample
	native := func(w int) core.Options { return core.Options{NativeWorkers: w} }
	tile := core.DefaultTile(8)
	rows := map[string]solveFunc{
		"core.floor": func(_ context.Context, t *table) (string, error) {
			return grid(core.SolveParallelOpt(t.Prob, native(1)))
		},
		"core.parallel.w1": func(_ context.Context, t *table) (string, error) {
			return grid(core.SolveParallelOpt(t.Prob, native(1)))
		},
		"core.parallel.wmax": func(_ context.Context, t *table) (string, error) {
			return grid(core.SolveParallelOpt(t.Prob, native(wmax())))
		},
		"core.tiled.w1": func(ctx context.Context, t *table) (string, error) {
			return grid(core.SolveTiledContext(ctx, t.Prob, tile, native(1)))
		},
		"core.tiled.wmax": func(ctx context.Context, t *table) (string, error) {
			return grid(core.SolveTiledContext(ctx, t.Prob, tile, native(wmax())))
		},
		"core.async.w1": func(_ context.Context, t *table) (string, error) { return grid(core.SolveAsyncOpt(t.Prob, native(1))) },
		"core.async.wmax": func(_ context.Context, t *table) (string, error) {
			return grid(core.SolveAsyncOpt(t.Prob, native(wmax())))
		},
		"lddp.solve": engineSolve,
		"sched.lone": func(ctx context.Context, t *table) (string, error) { return grid(lddp.SolveOn(ctx, sc, t.Prob)) },
		"server.handler.json": func(_ context.Context, t *table) (string, error) {
			return handlerSolve(node.srv.Handler(), t, false)
		},
		"server.handler.binary": func(_ context.Context, t *table) (string, error) {
			return handlerSolve(node.srv.Handler(), t, true)
		},
		"client.json":   clientSolver(clients[client.CodecJSON], &clientSamples),
		"client.binary": clientSolver(clients[client.CodecBinary], &clientSamples),
		"fleet.n2":      fleetSolver(hc, fl.lb.url),
	}

	out := &ledgerOut{Rows: map[string]ledgerRow{}}
	before := snapshotNode(node)
	fleetBefore := snapshotFleet(fl)
	var id int64
	for _, name := range ledgerRows {
		runtime.GC()
		a0 := allocBytes()
		root := sp.Reserve("ledger."+name, 0, time.Now())
		for _, t := range tables {
			id++
			t0 := time.Now()
			digest, err := rows[name](ctx, t)
			sp.Add(name, id, root, t0, time.Now())
			out.Calls++
			switch {
			case err != nil:
				out.Failed++
				fmt.Fprintf(stderr, "perfbench: ledger %s %s: %v\n", name, t.Name, err)
			case digest != t.Oracle:
				out.Failed++
				out.Mismatches++
				fmt.Fprintf(stderr, "perfbench: ledger %s %s: digest %s, oracle %s\n", name, t.Name, digest, t.Oracle)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		sp.Finish(root, time.Now())
		out.Rows[name] = ledgerRow{
			MS:      ms(sp.Total(name)),
			AllocMB: float64(allocBytes()-a0) / (1 << 20),
		}
	}
	out.Serve = serveLayer(before, snapshotNode(node), clientSamples)
	out.Fleet = fleetLayer(fleetBefore, snapshotFleet(fl), out.Rows)
	return out, nil
}

// clientSolver solves a table through lddp/client over loopback HTTP
// and appends the call's client-side sample to rec.
func clientSolver(c *client.Client, rec *[]sample) solveFunc {
	var prev time.Time
	return func(ctx context.Context, t *table) (string, error) {
		var getConn, gotConn time.Time
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { getConn = time.Now() },
			GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
		})
		t0 := time.Now()
		resp, err := c.Solve(ctx, &t.Req)
		done := time.Now()
		s := sample{Lat: done.Sub(t0), Call: done.Sub(t0), Cells: t.cells(), Failed: err != nil, ConnWait: gotConn.Sub(getConn)}
		if !prev.IsZero() {
			s.GenLate = t0.Sub(prev)
		}
		prev = done
		if err != nil {
			*rec = append(*rec, s)
			return "", err
		}
		s.ServerMS = resp.ElapsedMS
		*rec = append(*rec, s)
		return resp.Digest, nil
	}
}

// handlerSolve calls the lddpd handler directly with a recorder and no
// socket, under Cache-Control: no-store. The row's span also covers
// encoding the request and decoding the response, both a few hundred
// bytes for a digest-only table.
func handlerSolve(h http.Handler, t *table, binary bool) (string, error) {
	var body bytes.Buffer
	ct := "application/json"
	if binary {
		ct = wire.MediaType
		enc := wire.NewEncoder(&body)
		if err := enc.Header(&t.Req); err != nil {
			return "", err
		}
		if err := enc.Close(); err != nil {
			return "", err
		}
	} else if err := json.NewEncoder(&body).Encode(&t.Req); err != nil {
		return "", err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", &body)
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", ct)
	req.Header.Set("Cache-Control", "no-store")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("handler: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if binary {
		d := wire.NewDecoder(rec.Body)
		defer d.Release()
		hdr, err := d.Header()
		if err != nil {
			return "", err
		}
		var resp api.SolveResponse
		if err := json.Unmarshal(hdr, &resp); err != nil {
			return "", err
		}
		return resp.Digest, nil
	}
	var resp api.SolveResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		return "", err
	}
	return resp.Digest, nil
}

// ledgerMetrics renders the ledger as <row>.ms, <row>.x_floor and
// <row>.alloc_mb, plus the self times.
func ledgerMetrics(l *ledgerOut) map[string]Metric {
	out := map[string]Metric{}
	floor := l.Rows["core.floor"].MS
	for _, name := range ledgerRows {
		r := l.Rows[name]
		out[name+".ms"] = Metric{r.MS, "ms"}
		out[name+".x_floor"] = Metric{ratio(r.MS, floor), "x"}
		out[name+".alloc_mb"] = Metric{r.AllocMB, "MB"}
	}
	for _, s := range selfTimes {
		out[s.name] = Metric{l.Rows[s.outer].MS - l.Rows[s.inner].MS, "ms"}
	}
	return out
}
