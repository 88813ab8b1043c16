package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
)

// bandFrameFor renders one band request as a binary wire frame the way
// the client does: the header without the halo arrays, an empty cell
// section, and each halo as a tagged section.
func bandFrameFor(f *testing.F, req *api.BandRequest) string {
	f.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	hdr := *req
	hdr.HaloNorth, hdr.HaloWest, hdr.HaloEast = nil, nil, nil
	err := enc.Header(&hdr)
	if err == nil {
		err = enc.BeginSections()
	}
	for i, cells := range [][]int64{req.HaloNorth, req.HaloWest, req.HaloEast} {
		if err == nil && len(cells) > 0 {
			err = enc.Section([]uint64{wire.SectionNorth, wire.SectionWest, wire.SectionEast}[i], cells)
		}
	}
	if err == nil {
		err = enc.Close()
	}
	if err != nil {
		f.Fatal(err)
	}
	return buf.String()
}

// oracleBandRequest cuts block [r0,r1) x [c0,c1) out of a seeded table,
// with the halos HaloSpec demands sliced from the sequential oracle.
func oracleBandRequest(f *testing.F, kind string, seed int64, m lddp.DepMask, rows, cols, r0, r1, c0, c1 int) *api.BandRequest {
	f.Helper()
	req := &api.BandRequest{
		Rows: rows, Cols: cols, Row0: r0, Row1: r1, Col0: c0, Col1: c1,
		Mask: m.String(), Workload: api.WorkloadSpec{Kind: kind, Seed: seed},
	}
	p, err := server.BuildProblem(&api.SolveRequest{Rows: rows, Cols: cols, Mask: req.Mask, Workload: req.Workload})
	if err != nil {
		f.Fatal(err)
	}
	oracle, err := core.Solve(p)
	if err != nil {
		f.Fatal(err)
	}
	h := api.HaloSpec(m, rows, cols, r0, r1, c0, c1)
	if h.NorthLen > 0 {
		req.NorthLo = h.NorthLo
		for j := h.NorthLo; j < h.NorthLo+h.NorthLen; j++ {
			req.HaloNorth = append(req.HaloNorth, oracle.At(r0-1, j))
		}
	}
	for i := 0; i < h.WestLen; i++ {
		req.HaloWest = append(req.HaloWest, oracle.At(r0+i, c0-1))
	}
	for i := 0; i < h.EastLen; i++ {
		req.HaloEast = append(req.HaloEast, oracle.At(r0+i, c1))
	}
	return req
}

// oracleBlock returns the block a validated band request names, from
// the sequential oracle: the full table of the request's workload is
// solved by core.Solve, the request's halo values are written over the
// cells they stand for, and the block is re-evaluated row-major from
// that table — reading out-of-table neighbours from the workload's own
// boundary, as the unsharded solve does. When the halos are the
// oracle's own values, as the fleet coordinator sends them, this is
// exactly the oracle table's block.
func oracleBlock(t *testing.T, req *api.BandRequest) []int64 {
	t.Helper()
	p, err := server.BuildProblem(&api.SolveRequest{Rows: req.Rows, Cols: req.Cols, Mask: req.Mask, Workload: req.Workload})
	if err != nil {
		t.Fatalf("a 200 band request does not build: %v", err)
	}
	oracle, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := req.Rows, req.Cols
	tbl := make([]int64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			tbl[i*cols+j] = oracle.At(i, j)
		}
	}
	for k, v := range req.HaloNorth {
		tbl[(req.Row0-1)*cols+req.NorthLo+k] = v
	}
	for i, v := range req.HaloWest {
		tbl[(req.Row0+i)*cols+req.Col0-1] = v
	}
	for i, v := range req.HaloEast {
		tbl[(req.Row0+i)*cols+req.Col1] = v
	}
	read := func(i, j int) int64 {
		if i < 0 || j < 0 || j >= cols {
			if p.Boundary == nil {
				return 0
			}
			return p.Boundary(i, j)
		}
		return tbl[i*cols+j]
	}
	block := make([]int64, 0, (req.Row1-req.Row0)*(req.Col1-req.Col0))
	for i := req.Row0; i < req.Row1; i++ {
		for j := req.Col0; j < req.Col1; j++ {
			var nb lddp.Neighbors[int64]
			if p.Deps.Has(lddp.DepW) {
				nb.W = read(i, j-1)
			}
			if p.Deps.Has(lddp.DepNW) {
				nb.NW = read(i-1, j-1)
			}
			if p.Deps.Has(lddp.DepN) {
				nb.N = read(i-1, j)
			}
			if p.Deps.Has(lddp.DepNE) {
				nb.NE = read(i-1, j+1)
			}
			tbl[i*cols+j] = p.F(i, j, nb)
			block = append(block, tbl[i*cols+j])
		}
	}
	return block
}

// FuzzBandRequest throws arbitrary bytes at the live POST /v1/band/solve
// handler under both codecs (binary selects the frame Content-Type).
// The invariants: the handler never panics; every 4xx is a JSON
// ErrorBody; every 200 is a BandResponse whose cells and digest equal
// the oracle's block (oracleBlock) for every table up to 64x64, which
// the fuzz service's cell cap makes every table it accepts. Any other
// status means a malformed request escaped validation.
func FuzzBandRequest(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden/band_request.json")
	if err != nil {
		f.Fatal(err)
	}
	goldenReq, err := server.ParseBandRequest(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden), false)
	f.Add(bandFrameFor(f, goldenReq), true)

	var seeds []*api.BandRequest
	// Cost blocks at each corner of a 40x33 table, under masks that
	// between them need every halo.
	const rows, cols = 40, 33
	for _, m := range []lddp.DepMask{api.DefaultMask, lddp.DepNW, lddp.DepN | lddp.DepNE, lddp.DepW | lddp.DepNW | lddp.DepN | lddp.DepNE} {
		for _, b := range [][4]int{{0, 10, 0, 8}, {0, 10, 25, 33}, {30, 40, 0, 8}, {30, 40, 25, 33}, {0, rows, 0, cols}} {
			seeds = append(seeds, oracleBandRequest(f, api.KindCost, 7, m, rows, cols, b[0], b[1], b[2], b[3]))
		}
	}
	// An interior block with all three halos, then each halo one cell
	// too long and one too short.
	all := lddp.DepW | lddp.DepNW | lddp.DepN | lddp.DepNE
	mid := oracleBandRequest(f, api.KindMix, 3, all, rows, cols, 12, 20, 9, 17)
	seeds = append(seeds, mid, oracleBandRequest(f, api.KindAlign, 5, api.AlignMask, rows, cols, 12, 20, 9, 17))
	for _, halo := range []func(*api.BandRequest) *[]int64{
		func(r *api.BandRequest) *[]int64 { return &r.HaloNorth },
		func(r *api.BandRequest) *[]int64 { return &r.HaloWest },
		func(r *api.BandRequest) *[]int64 { return &r.HaloEast },
	} {
		long, short := *mid, *mid
		*halo(&long) = append(append([]int64{}, *halo(mid)...), 1)
		*halo(&short) = (*halo(mid))[1:]
		seeds = append(seeds, &long, &short)
	}
	for _, req := range seeds {
		doc, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(doc), false)
		f.Add(bandFrameFor(f, req), true)
	}
	f.Add(`{}`, false)
	f.Add(`{"rows":1,"cols":1,"row1":1,"col1":1}`, false)
	f.Add(`{"rows":4294967296,"cols":4294967296,"row1":1,"col1":1}`, false)
	f.Add(`{"rows":4,"cols":4,"row0":2,"row1":2,"col1":4}`, false)
	f.Add("\x01\x02{}\x00\x01\x01\x80\x80\x80\x80\x01", true)

	f.Fuzz(func(t *testing.T, body string, binary bool) {
		contentType := "application/json"
		if binary {
			contentType = wire.MediaType
		}
		resp, err := http.Post(fuzzURL()+"/v1/band/solve", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var out api.BandResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("200 body does not decode as BandResponse: %v\n%s", err, raw)
			}
			var req *api.BandRequest
			if binary {
				req, err = server.ParseBinaryBandRequest(strings.NewReader(body), 256)
			} else {
				req, err = server.ParseBandRequest(strings.NewReader(body))
			}
			if err != nil {
				t.Fatalf("a 200 request does not parse: %v", err)
			}
			if out.Status != "done" || out.Row0 != req.Row0 || out.Row1 != req.Row1 || out.Col0 != req.Col0 || out.Col1 != req.Col1 {
				t.Fatalf("200 response malformed: %+v", out)
			}
			if !api.CellsWithin(req.Rows, req.Cols, 64*64) {
				return
			}
			want := oracleBlock(t, req)
			bCols := req.Col1 - req.Col0
			if d := server.DigestCells(req.Row1-req.Row0, bCols, want); out.Digest != d {
				t.Fatalf("block [%d,%d)x[%d,%d) of %dx%d: digest %s, oracle %s\nrequest: %q",
					req.Row0, req.Row1, req.Col0, req.Col1, req.Rows, req.Cols, out.Digest, d, body)
			}
			for i, row := range out.Cells {
				for j, v := range row {
					if v != want[i*bCols+j] {
						t.Fatalf("cell (%d,%d): band %d, oracle %d", req.Row0+i, req.Col0+j, v, want[i*bCols+j])
					}
				}
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			var out api.ErrorBody
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("%d body does not decode as ErrorBody: %v\n%s", resp.StatusCode, err, raw)
			}
			if out.Error == "" || out.Status == "" {
				t.Fatalf("%d response missing error/status: %s", resp.StatusCode, raw)
			}
		default:
			t.Fatalf("input produced status %d (want 200 or 4xx): %s\nrequest: %q", resp.StatusCode, raw, body)
		}
	})
}
