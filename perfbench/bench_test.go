package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTailPercentile pins the reporting rule: the wanted percentile,
// lowered until at least ten samples lie beyond it, the maximum when
// no percentile qualifies, and always the sample count.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		wantP     float64
		wantValue float64
	}{
		{200, 90, 180}, // 20 beyond p90
		{100, 90, 90},  // exactly 10 beyond
		{50, 80, 40},   // p90 would leave 5 beyond: lowered to p80
		{11, 100.0 / 11, 1},
		{10, 100, 10}, // nothing has 10 beyond: the maximum
		{1, 100, 1},
	} {
		got := tailPercentile(seq(c.n), 90)
		if math.Abs(got.P-c.wantP) > 1e-9 || got.Value != c.wantValue || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%v = %v", c.n, got, c.wantP, c.wantValue)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if got.P < 100 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported p%v", c.n, beyond, got.P)
		}
	}
	if got := tailPercentile(nil, 90); got.N != 0 {
		t.Errorf("empty sample: %+v", got)
	}
}

func TestMetricNameShape(t *testing.T) {
	for _, ok := range []string{"search_s", "likelihood.opt_local_s", "seq.patterns", "a-b.c_1"} {
		if !namePattern.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", "has space", "a/b", "x{y}"} {
		if namePattern.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	const rate = 4
	a := arrivals(7, rate, 10*time.Second)
	if !reflect.DeepEqual(a, arrivals(7, rate, 10*time.Second)) {
		t.Fatal("same seed gave different schedules")
	}
	b := arrivals(8, rate, 10*time.Second)
	if reflect.DeepEqual(a, b) {
		t.Fatal("a different seed must change the schedule")
	}
	if len(a) != 10*rate || len(b) != len(a) {
		t.Fatalf("%d and %d arrivals in 10s at %d/s", len(a), len(b), rate)
	}
	// Both seeds search the same fresh specs in the same order, split
	// evenly over the tenants.
	freshOf := func(xs []arrival) (specs []arrival, dups int) {
		for _, x := range xs {
			if x.Dup {
				dups++
				continue
			}
			specs = append(specs, arrival{Tenant: x.Tenant, Seed: x.Seed})
		}
		return specs, dups
	}
	fa, da := freshOf(a)
	fb, db := freshOf(b)
	if !reflect.DeepEqual(fa, fb) || da != len(a)/dupEvery || db != da {
		t.Fatalf("fresh specs differ between seeds, or duplicates %d/%d not 1 in %d", da, db, dupEvery)
	}
	seen := map[int64]bool{warmSeed: true}
	for k, x := range fa {
		if x.Tenant != k%2 || x.Seed%2 != 1 || seen[x.Seed] {
			t.Fatalf("fresh spec %d: tenant %d, seed %d even or reused", k, x.Tenant, x.Seed)
		}
		seen[x.Seed] = true
	}
	for i, x := range a {
		if i > 0 && x.At <= a[i-1].At {
			t.Fatalf("arrival %d not after %d", i, i-1)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) == 0 {
		t.Fatal("no workloads")
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, bw := range bj.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Every listed workload has a pinned input, and every search
		// workload a pinned reference.
		for i := range w.DataSeeds {
			if _, err := makeDataset(w, i, p.Inputs[inputKey(w, i)]); err != nil || p.Inputs[inputKey(w, i)] == "" {
				t.Errorf("%s input %d: pin missing or wrong: %v", w.Name, i, err)
			}
		}
		if _, ok := p.References[w.Name]; w.Kind != kindServe && !ok {
			t.Errorf("%s: no pinned reference", w.Name)
		}
	}
}

// TestTinyWorkloads runs a small twin of every workload end to end,
// untraced and traced, and checks that each passes its output checks
// and prints exactly the metrics BENCHMARK.json names, with its units.
func TestTinyWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			if !namePattern.MatchString(m.Name) {
				t.Errorf("BENCHMARK.json metric %q has a bad name", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	want := map[bool]map[string]string{false: units(bj.EndToEnd), true: units(bj.PerLayer)}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serial-tiny", "tcp2-tiny", "serve-tiny"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			var res *result
			if w.Kind == kindServe {
				res, err = runServeWorkload(w, p, 3, 2, traced)
			} else {
				res, err = runSearchWorkload(w, p, 0.2, traced)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, res.errs)
			}
			got := map[string]string{}
			for _, n := range res.Metrics.names() {
				got[n] = res.Metrics.m[n].Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v: printed metrics\n%v\nBENCHMARK.json names\n%v", name, traced, got, want[traced])
			}
			if !traced {
				for n, m := range res.Metrics.m {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
					}
				}
			}
			if line, err := res.line(); err != nil || !json.Valid(line) {
				t.Errorf("%s: result line %q: %v", name, line, err)
			}
		}
	}
}

// TestCheckSearchRejects shows the search check fails a wrong result:
// another topology, or an lnL outside the tolerance.
func TestCheckSearchRejects(t *testing.T) {
	w, _ := findWorkload("serial-tiny")
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := makeDataset(w, 0, p.Inputs[inputKey(w, 0)])
	if err != nil {
		t.Fatal(err)
	}
	o, err := runSearch(w, ds, false)
	if err != nil {
		t.Fatal(err)
	}
	ref := p.References[w.Name]
	if err := checkSearch(ds, o.Res, ref); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	off := ref
	off.LnL -= 0.01
	if checkSearch(ds, o.Res, off) == nil {
		t.Error("lnL 0.01 off accepted")
	}
	other, err := tree.Triple(ds.Cfg.Taxa, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for taxon := 3; taxon < len(ds.Cfg.Taxa); taxon++ {
		if _, err := other.InsertLeaf(taxon, other.Edges()[0]); err != nil {
			t.Fatal(err)
		}
	}
	bad := *o.Res
	bad.BestNewick = other.Newick()
	if checkSearch(ds, &bad, ref) == nil {
		t.Error("another topology accepted as the reference")
	}
}

// TestTracedEngineForwardsCapabilities checks the decorator keeps the
// engine's counters reachable through the capability helpers.
func TestTracedEngineForwardsCapabilities(t *testing.T) {
	w, _ := findWorkload("serial-tiny")
	ds, err := makeDataset(w, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(tracedEngineName, ds.Cfg.Model, ds.Cfg.Patterns, likelihood.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Triple(ds.Cfg.Taxa, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for taxon := 3; taxon < len(ds.Cfg.Taxa); taxon++ {
		if _, err := tr.InsertLeaf(taxon, tr.Edges()[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.OptimizeBranches(tr, likelihood.OptOptions{Passes: 2}); err != nil {
		t.Fatal(err)
	}
	if likelihood.OpsOf(eng) == 0 || likelihood.StatsOf(eng).NewtonIters == 0 {
		t.Fatalf("counters lost through the decorator: ops %d, stats %+v", likelihood.OpsOf(eng), likelihood.StatsOf(eng))
	}
	te := eng.(*timedEngine)
	if te.calls[opFull] != 1 || te.spent[opFull] <= 0 {
		t.Fatalf("full optimization not timed: %d calls, %v", te.calls[opFull], te.spent[opFull])
	}
	likelihood.CloseEngine(eng)
	if st, ops := te.final(); ops == 0 || st.NewtonIters == 0 {
		t.Fatal("counters not frozen at Close")
	}
}
