package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
)

// TestBandSolveCostBlockAllocs is the band path's allocation
// regression: one 1024x256 block of a 2048x2048 seeded cost table must
// cost what the block costs. The node generates only the block's window
// of the cost grid (2 MB) beside the block's result (2 MB), about
// 4 MB in all; building the whole table's grid, as the band handler
// once did, allocates a 16 MB int32 grid and its 32 MB int64 copy per
// block (53 MB measured). The block must also match the same block cut
// from the full-table problem, so the window is the right one.
func TestBandSolveCostBlockAllocs(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 2048
	req := &api.BandRequest{
		Rows: n, Cols: n, Row0: 1024, Row1: 2048, Col0: 256, Col1: 512,
		Mask:     "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindCost, Seed: 1},
		NorthLo:  256, HaloNorth: make([]int64, 256), HaloWest: make([]int64, 1024),
	}
	for i := range req.HaloWest {
		req.HaloWest[i] = int64(i)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() (*httptest.ResponseRecorder, uint64) {
		hreq := httptest.NewRequest(http.MethodPost, "/v1/band/solve", bytes.NewReader(body))
		hreq.Header.Set("Accept", wire.MediaType)
		rec := httptest.NewRecorder()
		rec.Body.Grow(4 << 20) // the response's own buffer is not the node's cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, hreq)
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}
	solve() // warm pools and the scheduler
	rec, alloc := solve()
	if rec.Code != http.StatusOK {
		t.Fatalf("band solve: status %d: %s", rec.Code, rec.Body)
	}
	t.Logf("one 1024x256 block of a %dx%d cost table allocated %.1f MB", n, n, float64(alloc)/(1<<20))
	if alloc > 8<<20 {
		t.Errorf("one 1024x256 block allocated %d bytes, want under 8 MB", alloc)
	}

	d := wire.NewDecoder(rec.Body)
	defer d.Release()
	hdr, err := d.Header()
	if err != nil {
		t.Fatal(err)
	}
	var resp api.BandResponse
	if err := json.Unmarshal(hdr, &resp); err != nil {
		t.Fatal(err)
	}
	base, err := server.BuildProblem(&api.SolveRequest{Rows: n, Cols: n, Mask: req.Mask, Workload: req.Workload})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(server.BlockProblem(base, req, lddp.DepW|lddp.DepN))
	if err != nil {
		t.Fatal(err)
	}
	if w := server.DigestGrid(want); resp.Digest != w {
		t.Fatalf("block digest %s, full-table block %s", resp.Digest, w)
	}
}
