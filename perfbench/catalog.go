package main

import (
	"fmt"
	"sort"
)

// endToEndDefs are the metrics an untraced run reports, on every
// workload; BENCHMARK.json lists the same names, units and bounds.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"sustained_rps", "1/s", "higher", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
}

// latencyDefs are the request latencies. They are per-layer
// diagnostics, not bounded metrics: over ten seeds on the reference host
// the serve workloads' medians spread by 0.2-0.32 of their value and
// their tails by up to 0.26. A serve request's median is a few
// milliseconds, mostly goroutine and connection hand-offs whose cost
// swings with the virtual machine's scheduling from run to run.
var latencyDefs = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "r1.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "r1.latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "r2.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "r2.latency_tail_ms", Unit: "ms", Better: "lower"},
}

// perLayerDefs are the metrics a traced run reports, on every workload.
var perLayerDefs = func() []metricDef {
	d := append([]metricDef(nil), latencyDefs...)
	for _, row := range ledgerRows {
		d = append(d,
			metricDef{Name: row + ".ms", Unit: "ms", Better: "lower"},
			metricDef{Name: row + ".x_floor", Unit: "x", Better: "lower"},
			metricDef{Name: row + ".alloc_mb", Unit: "MB", Better: "lower"})
	}
	for _, s := range selfTimes {
		d = append(d, metricDef{Name: s.name, Unit: "ms", Better: "lower"})
	}
	return append(d, []metricDef{
		{Name: "wire.json.roundtrip_ms", Unit: "ms", Better: "lower"},
		{Name: "wire.binary.roundtrip_ms", Unit: "ms", Better: "lower"},
		{Name: "server.elapsed_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "client.overhead_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "sched.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
		{Name: "sched.steals_per_solve", Unit: "count", Better: "lower"},
		{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "cache.evictions_per_store", Unit: "ratio", Better: "lower"},
		{Name: "wire.request_bytes_per_req", Unit: "B", Better: "lower"},
		{Name: "wire.response_bytes_per_req", Unit: "B", Better: "lower"},
		{Name: "bench.conn_wait_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "fleet.blocks_per_solve", Unit: "count", Better: "lower"},
		{Name: "fleet.halo_mb_per_solve", Unit: "MB", Better: "lower"},
		{Name: "fleet.relocations", Unit: "count", Better: "lower"},
		{Name: "fleet.node_block_skew", Unit: "x", Better: "lower"},
		{Name: "fleet.x_single_node", Unit: "x", Better: "lower"},
		{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "failed_share", Unit: "ratio", Better: "lower"},
	}...)
}()

// checkReport verifies that got holds exactly the catalog's metrics,
// each with the catalog's unit.
func checkReport(got map[string]Metric, defs []metricDef) error {
	var missing, extra []string
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
		m, ok := got[d.Name]
		switch {
		case !ok:
			missing = append(missing, d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, catalog says %q", d.Name, m.Unit, d.Unit)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("report does not match the catalog: missing %v, extra %v", missing, extra)
	}
	return nil
}
