// Command perfbench is the repository's benchmark. It runs one named
// workload against the real packages — in process, with lddpd stacks
// and fleets served on loopback — checks every result against the
// sequential oracle, and prints one JSON result line:
//
//	perfbench --workload engine-2k --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 also runs the
// per-layer ledger and reports the per-layer metrics, writing the spans
// as Chrome trace-event JSON under --out. README.md documents the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

var stderr io.Writer = os.Stderr

// runCtx is what a workload is given.
type runCtx struct {
	seed  int64
	dur   time.Duration
	spans *Spans // nil on untraced runs
}

// runOut is what a workload measured.
type runOut struct {
	Samples    []sample
	Wall       time.Duration // closed loop: measured wall time
	Steps      []stepResult  // open loop only
	Limit      time.Duration // open loop: the step tail-latency limit
	Mismatches int
	Setup      []time.Duration
	PeakHeap   uint64
	Serve      map[string]Metric // serve workloads: their own serve-path metrics
	Tables     []*table          // closed-loop workloads: the tables, reused by the ledger
	// TableBytes sums the result tables of the workload's distinct
	// inputs (8 bytes a cell); BytesMoved is computed from it, not
	// measured: one write plus one read per contributing neighbour.
	TableBytes, BytesMoved int64
}

// setupRepeats is how many times each run boots its stack and warms up;
// setup_s is the median.
const setupRepeats = 5

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: engine-2k, serve-unique, serve-repeat or fleet-2k")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 12, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run record and trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	rc := &runCtx{seed: *seed, dur: time.Duration(*seconds) * time.Second}
	if *traceFlag == 1 {
		rc.spans = newSpans()
	}
	rec := newRecord(*name, *seed, *seconds, *traceFlag == 1)
	res, err := measure(ctx, wl, rc, rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if rc.spans != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := rc.spans.WriteChrome(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		rec.TracePath = path
	}
	rec.Result = res
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	recPath := filepath.Join(*outDir, fmt.Sprintf("record-%s-seed%d-trace%d.json", *name, *seed, *traceFlag))
	if err := os.WriteFile(recPath, append(recLine, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench: record %s\n", recLine)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: run failed its correctness or validity check; see the record")
		return 1
	}
	return 0
}

// measure runs the workload (and, when traced, the ledger and codec
// probe) and assembles the result.
func measure(ctx context.Context, wl workloadFunc, rc *runCtx, rec *record) (*result, error) {
	out, err := wl(ctx, rc)
	if err != nil {
		return nil, err
	}
	rec.TableBytes, rec.BytesMovedComputed = out.TableBytes, out.BytesMoved
	res := &result{Attempted: len(out.Samples)}
	for _, s := range out.Samples {
		if s.Failed {
			res.Failed++
		}
	}
	valid := true
	if out.Steps != nil {
		late := genLateP99(out.Samples)
		rec.GenLateP99MS = ms(late)
		if late > genLateBound {
			valid = false
			rec.Invalid = fmt.Sprintf("generator p99 lateness %v exceeds the %v bound", late, genLateBound)
		}
		rec.Steps = out.Steps
	}
	mismatches := out.Mismatches
	e2e, tails, err := endToEnd(out)
	if err != nil {
		return nil, err
	}
	rec.Tails = tails
	if rc.spans == nil {
		res.Metrics = map[string]Metric{}
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = e2e[d.Name]
		}
	} else {
		tables := out.Tables
		if tables == nil {
			if tables, err = buildTables(rc.seed); err != nil {
				return nil, err
			}
			if err := addOracles(tables); err != nil {
				return nil, err
			}
		}
		led, err := runLedger(ctx, tables, rc.spans)
		if err != nil {
			return nil, err
		}
		jsonMS, binaryMS, err := codecProbe(20)
		if err != nil {
			return nil, err
		}
		res.Attempted += led.Calls
		res.Failed += led.Failed
		mismatches += led.Mismatches
		m := ledgerMetrics(led)
		for _, d := range latencyDefs {
			m[d.Name] = e2e[d.Name]
		}
		m["wire.json.roundtrip_ms"] = Metric{jsonMS, "ms"}
		m["wire.binary.roundtrip_ms"] = Metric{binaryMS, "ms"}
		serve := out.Serve
		if serve == nil {
			serve = led.Serve
		}
		for k, v := range serve {
			m[k] = v
		}
		for k, v := range led.Fleet {
			m[k] = v
		}
		m["bench.trace_overhead_pct"] = Metric{traceOverheadPct(out.Samples), "%"}
		m["failed_share"] = Metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
		res.Metrics = m
	}
	defs := endToEndDefs
	if rc.spans != nil {
		defs = perLayerDefs
	}
	if err := checkReport(res.Metrics, defs); err != nil {
		return nil, err
	}
	rec.Mismatches = mismatches
	res.Correct = mismatches == 0 && valid
	return res, nil
}

// genLateBound is how far behind its schedule the open-loop generator
// may fall (p99 over r1 and r2) before a run is marked invalid: beyond
// it the offered load is no longer the schedule's. The generator shares
// the cores with the server, whose CPU-bound workers hold them until the
// Go scheduler preempts them, so some 10-20 ms of lateness is normal.
const genLateBound = 40 * time.Millisecond

func genLateP99(samples []sample) time.Duration {
	var v []float64
	for _, s := range samples {
		if s.Step < 2 {
			v = append(v, float64(s.GenLate))
		}
	}
	return time.Duration(quantile(v, 0.99))
}

// traceOverheadPct compares the client-call latency of the traced half
// of the requests with the untraced half: 100*(traced/untraced - 1).
func traceOverheadPct(samples []sample) float64 {
	var on, off []float64
	for _, s := range samples {
		if s.Failed {
			continue
		}
		if s.Traced {
			on = append(on, float64(s.Call))
		} else {
			off = append(off, float64(s.Call))
		}
	}
	return 100 * (ratio(median(on), median(off)) - 1)
}

// endToEnd computes the end-to-end metrics and the tails of a run.
func endToEnd(o *runOut) (map[string]Metric, map[string]Tail, error) {
	var setup []float64
	for _, d := range o.Setup {
		setup = append(setup, d.Seconds())
	}
	// Closed loop: every sample. Open loop: r1 and r2, the steps the
	// reference host sustains; r3, the saturation step, sets cells_per_s.
	var all Latencies
	steps := make([]Latencies, max(len(o.Steps), 2))
	var cells, satCells int64
	for _, s := range o.Samples {
		if s.Failed {
			continue
		}
		if s.Step < 2 {
			all = append(all, s.Lat)
			cells += s.Cells
		}
		steps[s.Step] = append(steps[s.Step], s.Lat)
		if s.Step == 2 {
			satCells += s.Cells
		}
	}
	cellsPerS := float64(cells) / o.Wall.Seconds()
	if o.Steps != nil {
		cellsPerS = float64(satCells) / o.Steps[2].Span.Seconds()
	}
	m := map[string]Metric{
		"setup_s":      {median(setup), "s"},
		"cells_per_s":  {cellsPerS, "cells/s"},
		"peak_heap_mb": {float64(o.PeakHeap) / (1 << 20), "MB"},
	}
	tails := map[string]Tail{}
	put := func(prefix string, l Latencies) error {
		t, ok := l.tail()
		if !ok {
			return fmt.Errorf("%slatency_tail_ms: %d samples, need %d", prefix, len(l), tailBeyond+1)
		}
		m[prefix+"latency_p50_ms"] = Metric{ms(l.p50()), "ms"}
		m[prefix+"latency_tail_ms"] = Metric{ms(t.Value), "ms"}
		tails[prefix+"latency_tail_ms"] = t
		return nil
	}
	if err := put("", all); err != nil {
		return nil, nil, err
	}
	for k := 0; k < 2; k++ {
		if err := put(fmt.Sprintf("r%d.", k+1), steps[k]); err != nil {
			return nil, nil, err
		}
	}
	if o.Steps == nil {
		m["sustained_rps"] = Metric{float64(len(all)) / o.Wall.Seconds(), "1/s"}
		return m, tails, nil
	}
	// Open loop: the achieved rate of the highest of r1 and r2 that met
	// the tail limit with no failures and no growing backlog. r3, the
	// saturation step, offers more than any stack can take.
	sustained := 0.0
	for k, st := range o.Steps[:2] {
		t, ok := steps[k].tail()
		failed := false
		for _, s := range o.Samples {
			failed = failed || (s.Step == k && s.Failed)
		}
		if ok && t.Value <= o.Limit && !failed && !st.Backlog {
			sustained = st.Achieved
		}
	}
	m["sustained_rps"] = Metric{sustained, "1/s"}
	return m, tails, nil
}

// heapPeak samples heap bytes in use until stopped and keeps the peak.
type heapPeak struct {
	stop, done chan struct{}
	peak       atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler and returns the peak.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// timedSetups runs boot setupRepeats times, timing each; every boot but
// the last is torn down, and the last one's value is returned.
func timedSetups[T any](boot func() (T, error), teardown func(T) error) (v T, times []time.Duration, err error) {
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := teardown(v); err != nil {
				return v, nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		if v, err = boot(); err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return v, times, nil
}
