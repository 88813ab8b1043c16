package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
)

// nodeSnap is one node's counters at an instant.
type nodeSnap struct {
	sched lddp.SchedSnapshot
	cache lddp.CacheSnapshot
	wire  lddp.WireSnapshot
}

func snapshotNode(n *node) nodeSnap {
	return nodeSnap{n.srv.Metrics().Snapshot().Sched, n.srv.CacheStats(), n.srv.WireStats()}
}

// serveLayer derives the serve-path per-layer metrics from the node's
// counter deltas and the client-side samples.
func serveLayer(a, b nodeSnap, samples []sample) map[string]Metric {
	var elapsed, overhead, conn, late []float64
	for _, s := range samples {
		if s.Failed {
			continue
		}
		elapsed = append(elapsed, s.ServerMS)
		overhead = append(overhead, ms(s.Call)-s.ServerMS)
		conn = append(conn, ms(s.ConnWait))
		late = append(late, ms(s.GenLate))
	}
	started := float64(b.sched.Started - a.sched.Started)
	done := float64(b.sched.Done - a.sched.Done)
	lookups := float64(b.cache.Hits - a.cache.Hits + b.cache.Misses - a.cache.Misses)
	reqs := float64(b.wire.JSONRequests - a.wire.JSONRequests + b.wire.BinaryRequests - a.wire.BinaryRequests)
	resps := float64(b.wire.JSONResponses - a.wire.JSONResponses + b.wire.BinaryResponses - a.wire.BinaryResponses)
	return map[string]Metric{
		"server.elapsed_p50_ms":       {median(elapsed), "ms"},
		"client.overhead_p50_ms":      {median(overhead), "ms"},
		"sched.queue_wait_mean_ms":    {ratio(float64(b.sched.QueueWaitNS-a.sched.QueueWaitNS), started) / 1e6, "ms"},
		"sched.steals_per_solve":      {ratio(float64(b.sched.Steals-a.sched.Steals), done), "count"},
		"cache.hit_ratio":             {ratio(float64(b.cache.Hits-a.cache.Hits), lookups), "ratio"},
		"cache.evictions_per_store":   {ratio(float64(b.cache.Evictions-a.cache.Evictions), float64(b.cache.Stores-a.cache.Stores)), "ratio"},
		"wire.request_bytes_per_req":  {ratio(float64(b.wire.RequestBytes-a.wire.RequestBytes), reqs), "B"},
		"wire.response_bytes_per_req": {ratio(float64(b.wire.ResponseBytes-a.wire.ResponseBytes), resps), "B"},
		"bench.conn_wait_p50_ms":      {median(conn), "ms"},
		"bench.gen_late_p99_ms":       {quantile(late, 0.99), "ms"},
	}
}

// fleetSnap is the coordinator's counters plus each node's count of band
// requests served.
type fleetSnap struct {
	coord lddp.FleetSnapshot
	nodes []int64
}

func snapshotFleet(f *fleetStack) fleetSnap {
	s := fleetSnap{coord: f.coord.MetricsSnapshot()}
	for _, n := range f.nodes {
		s.nodes = append(s.nodes, n.srv.WireStats().BinaryRequests)
	}
	return s
}

// fleetLayer derives the fleet per-layer metrics over a set of solves.
// node_block_skew is the busiest node's block count over the mean (1 is
// even); x_single_node is the fleet row over the single-node binary
// client row.
func fleetLayer(a, b fleetSnap, rows map[string]ledgerRow) map[string]Metric {
	solves := float64(b.coord.Solves - a.coord.Solves)
	var most, total int64
	for i := range b.nodes {
		d := b.nodes[i] - a.nodes[i]
		most = max(most, d)
		total += d
	}
	mean := float64(total) / float64(len(b.nodes))
	return map[string]Metric{
		"fleet.blocks_per_solve":  {ratio(float64(b.coord.Blocks-a.coord.Blocks), solves), "count"},
		"fleet.halo_mb_per_solve": {ratio(float64(b.coord.HaloBytes-a.coord.HaloBytes), solves) / (1 << 20), "MB"},
		"fleet.relocations":       {float64(b.coord.Relocations - a.coord.Relocations), "count"},
		"fleet.node_block_skew":   {ratio(float64(most), mean), "x"},
		"fleet.x_single_node":     {ratio(rows["fleet.n2"].MS, rows["client.binary"].MS), "x"},
	}
}

// codecProbe times the encode and decode of one 256x256 response with
// cells through each codec, called directly: the median of reps round
// trips. Each decoded table is checked against the original's digest
// outside the timed part.
func codecProbe(reps int) (jsonMS, binaryMS float64, err error) {
	const side = 256
	g, err := core.Solve(server.MixProblem(7, lddp.DepW|lddp.DepN, side, side))
	if err != nil {
		return 0, 0, err
	}
	want := server.DigestGrid(g)
	flat := make([]int64, 0, side*side)
	rows := make([][]int64, side)
	for i := range rows {
		for j := 0; j < side; j++ {
			flat = append(flat, g.At(i, j))
		}
		rows[i] = flat[i*side : (i+1)*side]
	}
	resp := api.SolveResponse{ID: 1, Status: "done", Rows: side, Cols: side, Mask: "{W,N}", Digest: want, Cells: rows}

	// Each trip returns the decoded table's digest, computed later.
	jsonTrip := func() (func() string, error) {
		b, err := json.Marshal(&resp)
		if err != nil {
			return nil, err
		}
		var back api.SolveResponse
		if err := json.Unmarshal(b, &back); err != nil {
			return nil, err
		}
		return func() string { return flatDigest(back.Rows, back.Cols, back.Cells) }, nil
	}
	binaryTrip := func() (func() string, error) {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		hdr := resp
		hdr.Cells = nil
		if err := enc.Header(&hdr); err != nil {
			return nil, err
		}
		if err := enc.Cells(flat); err != nil {
			return nil, err
		}
		if err := enc.Close(); err != nil {
			return nil, err
		}
		d := wire.NewDecoder(&buf)
		defer d.Release()
		h, err := d.Header()
		if err != nil {
			return nil, err
		}
		var back api.SolveResponse
		if err := json.Unmarshal(h, &back); err != nil {
			return nil, err
		}
		cells, err := d.Cells(nil)
		if err != nil {
			return nil, err
		}
		if err := d.Close(); err != nil {
			return nil, err
		}
		return func() string { return server.DigestCells(back.Rows, back.Cols, cells) }, nil
	}
	timeIt := func(name string, trip func() (func() string, error)) (float64, error) {
		var v []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			digest, err := trip()
			v = append(v, ms(time.Since(t0)))
			if err != nil {
				return 0, fmt.Errorf("%s round trip: %w", name, err)
			}
			if got := digest(); got != want {
				return 0, fmt.Errorf("%s round trip: digest %s, want %s", name, got, want)
			}
		}
		return median(v), nil
	}
	if jsonMS, err = timeIt("json", jsonTrip); err != nil {
		return 0, 0, err
	}
	binaryMS, err = timeIt("binary", binaryTrip)
	return jsonMS, binaryMS, err
}
