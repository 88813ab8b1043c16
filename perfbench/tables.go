package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
)

// table is one fixed engine-2k input: the request any layer can take
// (lddpd and the fleet rebuild the instance from it), the instance
// itself, and its oracle digest.
type table struct {
	Name   string
	Req    api.SolveRequest
	Prob   *lddp.Problem[int64]
	Oracle string
}

func (t *table) cells() int64 { return int64(t.Req.Rows) * int64(t.Req.Cols) }

// tableSpecs are the six engine-2k tables. Every one holds 4,194,304
// cells, the server's default per-request cap, so the same table can run
// through every layer of the ledger; between them they cover all five
// Table-I patterns and a skinny table with short fronts.
var tableSpecs = []struct {
	name, kind, mask string
	rows, cols       int
}{
	{"align-2048-antidiag", api.KindAlign, "W,NW,N", 2048, 2048},
	{"mix-2048-horizontal", api.KindMix, "NW,N,NE", 2048, 2048},
	{"mix-2048-knight", api.KindMix, "W,NE", 2048, 2048},
	{"cost-2048-invertedL", api.KindCost, "NW", 2048, 2048},
	{"serve-2048-vertical", api.KindServe, "W", 2048, 2048},
	{"mix-512x8192-antidiag", api.KindMix, "W,N", 512, 8192},
}

// buildTables makes the six requests and instances; the table contents
// follow from seed. Oracle digests are filled in by addOracles.
func buildTables(seed int64) ([]*table, error) {
	out := make([]*table, 0, len(tableSpecs))
	for i, sp := range tableSpecs {
		req := api.SolveRequest{
			Rows: sp.rows, Cols: sp.cols, Mask: sp.mask,
			Workload: api.WorkloadSpec{Kind: sp.kind, Seed: seed*1_000 + int64(i)},
		}
		p, err := server.BuildProblem(&req)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", sp.name, err)
		}
		out = append(out, &table{Name: sp.name, Req: req, Prob: p})
	}
	return out, nil
}

// addOracles digests every table with the sequential oracle core.Solve.
func addOracles(ts []*table) error {
	for _, t := range ts {
		d, err := oracleDigest(t.Prob)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", t.Name, err)
		}
		t.Oracle = d
	}
	return nil
}

func oracleDigest(p *lddp.Problem[int64]) (string, error) {
	g, err := core.Solve(p)
	if err != nil {
		return "", err
	}
	return server.DigestGrid(g), nil
}

// flatDigest digests a row-slice table as the server does.
func flatDigest(rows, cols int, cells [][]int64) string {
	flat := make([]int64, 0, rows*cols)
	for _, r := range cells {
		flat = append(flat, r...)
	}
	return server.DigestCells(rows, cols, flat)
}
