package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestTailKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 48, 100, 1000} {
		var l Latencies
		for i := n; i >= 1; i-- { // reversed, so tail must sort
			l = append(l, time.Duration(i)*time.Millisecond)
		}
		got, ok := l.tail()
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, v := range l {
			if v > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); got.Pct != want || got.Samples != n {
			t.Errorf("n=%d: pct %v samples %d, want %v %d", n, got.Pct, got.Samples, want, n)
		}
	}
	if _, ok := make(Latencies, tailBeyond).tail(); ok {
		t.Errorf("a tail from %d samples leaves fewer than ten beyond it", tailBeyond)
	}
}

func TestP50(t *testing.T) {
	ms := func(v ...int) Latencies {
		var l Latencies
		for _, x := range v {
			l = append(l, time.Duration(x)*time.Millisecond)
		}
		return l
	}
	if got := ms(5, 1, 3).p50(); got != 3*time.Millisecond {
		t.Errorf("odd p50 = %v", got)
	}
	if got := ms(4, 1, 3, 2).p50(); got != 2500*time.Microsecond {
		t.Errorf("even p50 = %v", got)
	}
}

func TestCatalogGrammar(t *testing.T) {
	if err := checkCatalog(append(append([]metricDef{}, endToEndDefs...), perLayerDefs...)); err != nil {
		t.Fatal(err)
	}
	bad := [][]metricDef{
		{{Name: ".starts_with_dot", Unit: "ms", Better: "lower"}},
		{{Name: "has space", Unit: "ms", Better: "lower"}},
		{{Name: "x", Unit: "ms", Better: "lower"}, {Name: "x", Unit: "ms", Better: "lower"}},
		{{Name: "unit_too_long", Unit: "abcdefghijklmnopq", Better: "lower"}},
		{{Name: "unit_bad", Unit: "m s", Better: "lower"}},
		{{Name: "better_bad", Unit: "ms", Better: "faster"}},
		{{Name: "a234567890123456789012345678901234567890123456789012345678901234x", Unit: "ms", Better: "lower"}},
	}
	for _, defs := range bad {
		if checkCatalog(defs) == nil {
			t.Errorf("catalog %+v accepted", defs)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the repository
// root in step with the metrics the benchmark reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end = %+v\nwant %+v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalog")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"engine-2k", "serve-unique", "serve-repeat", "fleet-2k"}) {
		t.Errorf("BENCHMARK.json workloads = %v", names)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	l := &ledgerOut{Rows: map[string]ledgerRow{}}
	for i, name := range ledgerRows {
		l.Rows[name] = ledgerRow{MS: float64(100 + 10*i), AllocMB: 1}
	}
	m := ledgerMetrics(l)
	want := map[string]float64{
		"sched.self_ms":  l.Rows["sched.lone"].MS - l.Rows["core.parallel.wmax"].MS,
		"server.self_ms": l.Rows["server.handler.json"].MS - l.Rows["sched.lone"].MS,
		"client.self_ms": l.Rows["client.json"].MS - l.Rows["server.handler.json"].MS,
		"fleet.self_ms":  l.Rows["fleet.n2"].MS - l.Rows["client.binary"].MS,
	}
	for k, v := range want {
		if m[k].Value != v || m[k].Unit != "ms" {
			t.Errorf("%s = %+v, want %v ms", k, m[k], v)
		}
	}
	if got := m["core.floor.x_floor"].Value; got != 1 {
		t.Errorf("floor x_floor = %v", got)
	}
	if got, want := m["fleet.n2.x_floor"].Value, l.Rows["fleet.n2"].MS/l.Rows["core.floor"].MS; got != want {
		t.Errorf("fleet.n2.x_floor = %v, want %v", got, want)
	}
}

// TestSelfTimesFromSpans rebuilds ledger rows from recorded spans, as a
// traced run does.
func TestSelfTimesFromSpans(t *testing.T) {
	sp := newSpans()
	t0 := time.Unix(0, 0)
	add := func(name string, d ...time.Duration) {
		root := sp.Reserve("ledger."+name, 0, t0)
		for i, x := range d {
			sp.Add(name, int64(i), root, t0, t0.Add(x))
		}
	}
	add("sched.lone", 30*time.Millisecond, 40*time.Millisecond)
	add("core.parallel.wmax", 25*time.Millisecond, 35*time.Millisecond)
	if got := ms(sp.Total("sched.lone") - sp.Total("core.parallel.wmax")); got != 10 {
		t.Errorf("sched self time from spans = %v ms, want 10", got)
	}
}

func TestCheckReport(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms", Better: "lower"}}
	if err := checkReport(map[string]Metric{"a": {1, "ms"}}, defs); err != nil {
		t.Error(err)
	}
	for _, got := range []map[string]Metric{{}, {"a": {1, "s"}}, {"a": {1, "ms"}, "b": {1, "ms"}}} {
		if checkReport(got, defs) == nil {
			t.Errorf("report %v accepted", got)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkCatalog enforces the metric-name grammar: every name starts with a
// letter or digit, is at most 64 of [A-Za-z0-9_.-] and is used once;
// every unit is at most 16 of [A-Za-z0-9_/%.-]; "better" is lower or
// higher.
func checkCatalog(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q breaks the grammar", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %q: unit %q breaks the grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	return nil
}
