// Command benchjson converts `go test -bench -benchmem` output on stdin
// into the JSON records committed as BENCH_*.json. It keeps only the
// benchmark result lines plus the goos/goarch/cpu header, so a reference
// run can be diffed and archived without the test-runner chatter. -desc
// overrides the description line (e.g. to name the make target that
// regenerates the file).
//
// -assert turns the converter into a budget gate: each
// "substring<=limit" (repeatable) selects the benchmarks whose name
// contains the substring and fails the run (exit 1, JSON still written)
// when any of them exceeds the limit in allocs/op — the CI hook that
// keeps a perf-sensitive path from silently regressing its allocation
// budget. A pattern matching no benchmark is also an error: a renamed
// benchmark must not turn the gate into a no-op.
//
// -assert-ratio "A/B<=x" (repeatable) is the time gate: A and B are full
// benchmark names as printed (e.g. BenchmarkFoo-2, BenchmarkFoo/sub),
// each matched exactly, and the run fails when A's ns/op exceeds x times
// B's. A name repeated by -count averages its runs. A ratio of two
// benchmarks from one run holds across hosts, unlike absolute ns; a
// missing name or a malformed spec fails the run too.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

type report struct {
	Description string   `json:"description"`
	Goos        string   `json:"goos,omitempty"`
	Goarch      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	GoVersion   string   `json:"go_version,omitempty"`
	GoMaxProcs  int      `json:"gomaxprocs,omitempty"`
	Commit      string   `json:"commit,omitempty"`
	Timestamp   string   `json:"timestamp,omitempty"`
	Benchmarks  []result `json:"benchmarks"`
}

// assertList collects repeated -assert flags.
type assertList []string

func (a *assertList) String() string     { return strings.Join(*a, ",") }
func (a *assertList) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	desc := flag.String("desc", "Reference benchmark run; real wall-clock numbers from one machine. Regenerate with `make bench`.",
		"description line embedded in the report")
	var asserts, ratios assertList
	flag.Var(&asserts, "assert", "allocs/op budget as 'substring<=limit' (repeatable); fail when any matching benchmark exceeds it")
	flag.Var(&ratios, "assert-ratio", "ns/op ratio bound as 'A/B<=x' over two exact benchmark names (repeatable); fail when A exceeds x times B")
	flag.Parse()
	rep := report{
		Description: *desc,
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Commit:      gitCommit(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	failed := false
	for _, a := range asserts {
		for _, msg := range checkAssert(a, rep.Benchmarks) {
			fmt.Fprintln(os.Stderr, "benchjson:", msg)
			failed = true
		}
	}
	for _, a := range ratios {
		msg, ok := checkRatio(a, rep.Benchmarks)
		fmt.Fprintln(os.Stderr, "benchjson:", msg)
		failed = failed || !ok
	}
	if failed {
		os.Exit(1)
	}
}

// checkAssert evaluates one 'substring<=limit' budget against the parsed
// results and returns one message per violation (malformed spec and
// no-match are violations too — a silent gate is worse than none).
func checkAssert(spec string, benchmarks []result) []string {
	name, limitStr, ok := strings.Cut(spec, "<=")
	if !ok {
		return []string{fmt.Sprintf("assert %q: want 'substring<=limit'", spec)}
	}
	limit, err := strconv.ParseInt(strings.TrimSpace(limitStr), 10, 64)
	if err != nil {
		return []string{fmt.Sprintf("assert %q: bad limit: %v", spec, err)}
	}
	name = strings.TrimSpace(name)
	var msgs []string
	matched := false
	for _, r := range benchmarks {
		if !strings.Contains(r.Name, name) {
			continue
		}
		matched = true
		if r.AllocsPerOp > limit {
			msgs = append(msgs, fmt.Sprintf("assert %q: %s at %d allocs/op exceeds budget %d",
				spec, r.Name, r.AllocsPerOp, limit))
		}
	}
	if !matched {
		msgs = append(msgs, fmt.Sprintf("assert %q: no benchmark matched %q (renamed without updating the budget?)", spec, name))
	}
	return msgs
}

// checkRatio evaluates one 'A/B<=x' time-ratio bound against the parsed
// results. It returns a line reporting the ratio and whether the bound
// holds; a malformed spec or an unmatched name does not hold.
func checkRatio(spec string, benchmarks []result) (string, bool) {
	names, limitStr, ok := strings.Cut(spec, "<=")
	// The names themselves may contain '/', but each starts with
	// "Benchmark", so the separator is the '/' before the second one.
	sep := strings.Index(names, "/Benchmark")
	if !ok || sep < 0 || !strings.HasPrefix(names, "Benchmark") {
		return fmt.Sprintf("assert-ratio %q: want 'BenchmarkA/BenchmarkB<=x'", spec), false
	}
	limit, err := strconv.ParseFloat(strings.TrimSpace(limitStr), 64)
	if err != nil {
		return fmt.Sprintf("assert-ratio %q: bad bound: %v", spec, err), false
	}
	a, b := strings.TrimSpace(names[:sep]), strings.TrimSpace(names[sep+1:])
	mean := func(name string) (float64, bool) {
		sum, n := 0.0, 0
		for _, r := range benchmarks {
			if r.Name == name {
				sum += r.NsPerOp
				n++
			}
		}
		return sum / float64(max(n, 1)), n > 0
	}
	na, okA := mean(a)
	nb, okB := mean(b)
	switch {
	case !okA:
		return fmt.Sprintf("assert-ratio %q: no benchmark named %q", spec, a), false
	case !okB:
		return fmt.Sprintf("assert-ratio %q: no benchmark named %q", spec, b), false
	}
	ratio := na / nb
	if ratio > limit {
		return fmt.Sprintf("assert-ratio %q: %s/%s = %.3f exceeds %g", spec, a, b, ratio, limit), false
	}
	return fmt.Sprintf("assert-ratio %q: %s/%s = %.3f, within %g", spec, a, b, ratio, limit), true
}

// gitCommit resolves the short commit hash of the working tree,
// best-effort: runs outside a checkout (or without git) produce records
// without a commit field rather than failing.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// parseLine decodes one `BenchmarkName-P  N  X ns/op  [Y B/op  Z allocs/op]`
// result line. Unknown units are ignored so custom ReportMetric columns
// pass through harmlessly.
func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		}
	}
	return r, r.NsPerOp > 0
}
