package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// bandFrameServer answers every band solve with one binary frame whose
// header is hdr and whose cell section is cells.
func bandFrameServer(t *testing.T, hdr BandResponse, cells []int64) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.MediaType)
		enc := wire.NewEncoder(w)
		enc.Header(hdr)
		enc.Cells(cells)
		enc.Close()
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}), WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func bandDone(row0, row1, col0, col1 int) BandResponse {
	return BandResponse{ID: 1, Status: "done", Row0: row0, Row1: row1, Col0: col0, Col1: col1, Digest: "feed"}
}

// TestBandFrameHeaderPastCap: a header naming a block larger than the
// decoder's cell cap (or an empty or inverted one) is a malformed frame,
// refused before the cell buffer is sized from it — a hostile header
// cannot make the client allocate for its claimed block.
func TestBandFrameHeaderPastCap(t *testing.T) {
	for _, hdr := range []BandResponse{
		bandDone(0, 1<<40, 0, 1<<40),      // 2^80 cells: the product overflows
		bandDone(0, 4097, 0, 1024),        // one row past the 1<<22-cell cap
		bandDone(0, 1, 0, maxBandCells+1), // one cell past it
		bandDone(5, 5, 0, 3),              // empty block
		bandDone(6, 5, 0, 3),              // inverted block
	} {
		c := bandFrameServer(t, hdr, []int64{1, 2, 3})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.SolveBand(context.Background(), &BandRequest{Rows: 8, Cols: 8})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, wire.ErrFrame) {
			t.Fatalf("block [%d,%d)x[%d,%d): got %v, want wire.ErrFrame", hdr.Row0, hdr.Row1, hdr.Col0, hdr.Col1, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("block [%d,%d)x[%d,%d): refusing the frame allocated %d bytes", hdr.Row0, hdr.Row1, hdr.Col0, hdr.Col1, d)
		}
	}
}

// TestBandFrameCellCountMismatch: a cell section shorter or longer than
// the header's block is a malformed frame, not a mis-sliced block.
func TestBandFrameCellCountMismatch(t *testing.T) {
	for _, cells := range [][]int64{{1, 2, 3, 4}, {1, 2, 3, 4, 5, 6, 7}, nil} {
		c := bandFrameServer(t, bandDone(0, 2, 0, 3), cells)
		_, err := c.SolveBand(context.Background(), &BandRequest{Rows: 2, Cols: 3})
		if !errors.Is(err, wire.ErrFrame) {
			t.Fatalf("%d cells for a 2x3 block: got %v, want wire.ErrFrame", len(cells), err)
		}
	}
}
