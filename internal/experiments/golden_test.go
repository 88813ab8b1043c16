package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedResultsAreFresh regenerates every experiment at the
// published configuration and compares it against the committed artifacts
// under results/. A mismatch means the code changed the published numbers
// without `make experiments` being re-run — regenerate and re-commit.
//
// Skipped under -short and when the results directory is absent (e.g. a
// stripped checkout).
func TestCommittedResultsAreFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size regeneration; skipped under -short")
	}
	resultsDir := filepath.Join("..", "..", "results")
	if _, err := os.Stat(resultsDir); err != nil {
		t.Skipf("no committed results directory: %v", err)
	}
	cfg := DefaultConfig()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join(resultsDir, e.ID+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing committed artifact %s: %v (run `make experiments`)", path, err)
			}
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString(e.Title + "\n" + e.Description + "\n\n")
			for _, tb := range tables {
				tb.Format(&sb)
			}
			if sb.String() != string(want) {
				t.Errorf("%s drifted from the committed artifact; run `make experiments` and re-commit", e.ID)
			}
		})
	}
}
