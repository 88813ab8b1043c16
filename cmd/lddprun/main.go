// Command lddprun solves one LDDP case-study problem and reports the
// answer plus, for simulated solvers, the heterogeneous execution profile.
//
// Usage:
//
//	lddprun -problem levenshtein -size 2048 -solver hetero
//	lddprun -problem dither -size 512 -solver parallel -workers 8
//	lddprun -problem checkerboard -size 1024 -solver hetero -platform Hetero-Low -gantt
//	lddprun -problem checkerboard -size 4096 -solver multi -accels k20,phi
//	lddprun -problem lcs -size 2048 -solver hetero -metrics
//	lddprun -problem levenshtein -size 2048 -solver parallel -traceout t.json
//	lddprun -problem levenshtein -size 2048 -solver async -traceout a.json
//	lddprun -problem dtw -size 1024 -solver tiled
//
// -solver takes any name of lddp's strategy table (auto, sequential,
// parallel, tiled, hetero, sim-cpu, sim-gpu, multi, async) or resilient,
// the unreliable-memory solver.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/hetsim"
	"repro/internal/trace"
	"repro/lddp"
)

func main() {
	problem := flag.String("problem", "levenshtein", fmt.Sprintf("one of %v", cli.ProblemNames()))
	size := flag.Int("size", 1024, "table side length")
	solver := flag.String("solver", lddp.Hetero.String(), "one of "+strategyNames(all)+" or resilient")
	workers := flag.Int("workers", 0, "workers for -solver "+strategyNames(func(r lddp.StrategyInfo) bool { return r.Workers })+" (0 = min(GOMAXPROCS, NumCPU))")
	platform := flag.String("platform", "Hetero-High", "simulated platform (Hetero-High, Hetero-Low, Hetero-Phi, Hetero-Modern)")
	platformFile := flag.String("platform-file", "", "load a custom platform calibration from a JSON file (overrides -platform)")
	tswitch := flag.Int("tswitch", -1, "t_switch (-1 = auto)")
	tshare := flag.Int("tshare", -1, "t_share (-1 = auto)")
	seed := flag.Uint64("seed", 1, "workload seed")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the simulated timeline")
	csv := flag.Bool("csv", false, "dump the simulated timeline as CSV")
	accels := flag.String("accels", "", "comma-separated accelerators for -solver multi (k20,gt650m,phi)")
	tile := flag.Int("tile", 0, "tile size for -solver "+strategyNames(func(r lddp.StrategyInfo) bool { return r.Tile })+" (0 = the L2-sized default for the problem's cell size)")
	replicas := flag.Int("replicas", 3, "memory replicas for -solver resilient")
	faultRate := flag.Int("faultrate", 1, "percent of writes corrupted per replica for -solver resilient")
	htmlOut := flag.String("html", "", "write an HTML Gantt chart of the simulated timeline to this file")
	metricsOut := flag.Bool("metrics", false, "emit the collected runtime metrics as JSON on stdout")
	traceOut := flag.Bool("trace", false, "print a phase/worker trace table of the solve")
	traceFile := flag.String("traceout", "", "record runtime events and write them as Chrome trace-event JSON to this file (analyze with lddptrace or ui.perfetto.dev)")
	flag.Parse()

	inst, err := cli.BuildInstance(*problem, *size, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("problem=%s table=%dx%d pattern=%s\n", inst.Name, inst.Rows, inst.Cols, inst.Pattern)

	// One collector serves both reporting flags; solvers that never emit
	// events (sequential, resilient) just yield an empty document.
	var metrics *lddp.Metrics
	var coll lddp.Collector
	if *metricsOut || *traceOut {
		metrics = &lddp.Metrics{}
		coll = metrics
	}
	var tracer *lddp.Tracer
	if *traceFile != "" {
		tracer = lddp.NewTracer()
	}

	if *solver == "resilient" {
		ans, corrected, err := inst.Resilient(*replicas, *faultRate, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (replicas=%d, detected faults at %d cells)\n", ans, *replicas, corrected)
	} else {
		strategy, err := lddp.ParseStrategy(*solver)
		if err != nil {
			fatal(fmt.Errorf("unknown solver %q (want %s or resilient)", *solver, strategyNames(all)))
		}
		opts := []lddp.Option{
			lddp.WithStrategy(strategy), lddp.WithWorkers(*workers), lddp.WithTile(*tile),
			lddp.WithCollector(coll), lddp.WithTracer(tracer),
		}
		simulated := strategy.Info().Simulated
		if simulated {
			var plat *hetsim.Platform
			if *platformFile != "" {
				data, rerr := os.ReadFile(*platformFile)
				if rerr != nil {
					fatal(rerr)
				}
				plat, err = hetsim.LoadPlatform(data)
			} else {
				plat, err = hetsim.PlatformByName(*platform)
			}
			if err != nil {
				fatal(err)
			}
			opts = append(opts, lddp.WithPlatformModel(plat), lddp.WithTSwitch(*tswitch), lddp.WithTShare(*tshare))
		}
		if strategy == lddp.Multi {
			names := strings.Split(*accels, ",")
			if *accels == "" {
				names = []string{"k20", "gt650m"}
			}
			opts = append(opts, lddp.WithAccelerators(names...))
		}
		out, err := inst.Solve(context.Background(), opts...)
		if err != nil {
			fatal(err)
		}
		switch {
		case strategy == lddp.Tiled:
			fmt.Printf("%s (tile=%d)\n", out.Answer, out.Tile)
		case !simulated:
			fmt.Println(out.Answer)
		default:
			fmt.Println(out.Answer)
			fmt.Printf("executed=%s transfer=%s t_switch=%d t_share=%d\n",
				out.Executed, out.Transfer, out.TSwitch, out.TShare)
			fmt.Printf("simulated: %s\n", trace.StatsLine(out.Timeline))
			if *gantt {
				fmt.Print(trace.Gantt(out.Timeline, 100))
			}
			if *csv {
				if err := trace.WriteCSV(os.Stdout, out.Timeline); err != nil {
					fatal(err)
				}
			}
			if *htmlOut != "" {
				f, err := os.Create(*htmlOut)
				if err != nil {
					fatal(err)
				}
				title := fmt.Sprintf("%s %dx%d (%s)", inst.Name, inst.Rows, inst.Cols, strategy)
				if err := trace.WriteHTMLGantt(f, out.Timeline, title); err != nil {
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
				fmt.Printf("wrote %s\n", *htmlOut)
			}
		}
	}

	if tracer != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		if err := lddp.WriteTrace(f, tracer); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		n := len(tracer.Events())
		if n == 0 {
			fmt.Printf("wrote %s (no events: solver %q is untraced)\n", *traceFile, *solver)
		} else {
			fmt.Printf("wrote %s (%d events, %d dropped)\n", *traceFile, n, tracer.Dropped())
		}
	}
	if *traceOut {
		printTrace(metrics.Snapshot())
	}
	if *metricsOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(metrics.Snapshot()); err != nil {
			fatal(err)
		}
	}
}

// strategyNames lists the strategy-table rows keep selects, for help
// and error text.
func strategyNames(keep func(lddp.StrategyInfo) bool) string {
	return strings.Join(lddp.StrategyNames(keep), ", ")
}

// all selects every row of the strategy table.
func all(lddp.StrategyInfo) bool { return true }

// printTrace renders the collected metrics as a readable table.
func printTrace(s lddp.MetricsSnapshot) {
	fmt.Printf("trace: solver=%s fronts=%d cells=%d\n", s.Solver, s.TotalFronts, s.TotalCells)
	for _, ph := range s.Phases {
		fmt.Printf("  phase %-12s wall=%-14s spans=%d\n", ph.Name, time.Duration(ph.WallNS), ph.Count)
	}
	for _, w := range s.Workers {
		fmt.Printf("  worker %-3d chunks=%-6d cells=%-10d busy=%-14s util=%.2f\n",
			w.Worker, w.Chunks, w.Cells, time.Duration(w.BusyNS), w.Utilization)
	}
	tr := s.Transfers
	if tr.BoundaryH2D.Count+tr.BoundaryD2H.Count+tr.BulkH2D.Count+tr.BulkD2H.Count > 0 {
		fmt.Printf("  transfers boundary h2d=%dB/%d d2h=%dB/%d bulk h2d=%dB/%d d2h=%dB/%d\n",
			tr.BoundaryH2D.Bytes, tr.BoundaryH2D.Count, tr.BoundaryD2H.Bytes, tr.BoundaryD2H.Count,
			tr.BulkH2D.Bytes, tr.BulkH2D.Count, tr.BulkD2H.Bytes, tr.BulkD2H.Count)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lddprun:", err)
	os.Exit(1)
}
