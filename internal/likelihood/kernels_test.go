package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// withinTol reports whether got agrees with want under the combined
// relative/absolute bound used by the tolerance checks.
func withinTol(got, want, rel, abs float64) bool {
	d := math.Abs(got - want)
	return d <= abs || d <= rel*math.Abs(want)
}

// shardFixture builds a data set large enough to split into several
// shards (npat >> minShardPatterns) with multiple rate classes, so the
// reduction shards cross classBlock boundaries.
func shardFixture(t testing.TB, seed int64, taxa, sites int) (model.Model, *seq.Patterns, *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	rows := randomRows(rng, taxa, sites)
	a := seq.NewAlignment(len(rows))
	for i, r := range rows {
		if err := a.Add(taxaNames(taxa)[i], r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	classes := []float64{0.25, 1.0, 3.0, 0.6}
	for i := range p.Rates {
		p.Rates[i] = classes[i%len(classes)]
	}
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.RandomTree(taxaNames(taxa), rng, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return m, p, tr
}

// caterpillarFixture builds the worst-case geometry for CLV underflow: a
// maximally unbalanced (caterpillar) tree whose pruning recursion is as
// deep as the taxon count, over random sequences so most patterns
// conflict along the spine and conditional likelihoods shrink
// geometrically with depth.
func caterpillarFixture(t testing.TB, seed int64, taxa, sites int) (model.Model, *seq.Patterns, *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	rows := randomRows(rng, taxa, sites)
	a := seq.NewAlignment(len(rows))
	names := taxaNames(taxa)
	for i, r := range rows {
		if err := a.Add(names[i], r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.New(names)
	if _, err := tr.GraftPair(0, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < taxa; i++ {
		leaf := tr.LeafByTaxon(i - 1)
		if _, err := tr.InsertLeaf(i, tree.Edge{A: leaf, B: leaf.Nbr[0]}); err != nil {
			t.Fatal(err)
		}
	}
	// Short branches keep per-join mismatch factors small (~1e-2), so
	// conditional likelihoods shrink geometrically down the deep spine.
	for _, ed := range tr.Edges() {
		tree.SetLen(ed.A, ed.B, 0.04)
	}
	return m, p, tr
}

// TestZeroAllocSteadyState asserts the arena work: once caches are warm,
// repeated likelihood evaluations and single-edge Newton optimization
// must not allocate.
func TestZeroAllocSteadyState(t *testing.T) {
	m, p, tr := shardFixture(t, 3, 12, 400)
	eng, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LogLikelihood(tr); err != nil {
		t.Fatal(err)
	}
	ed, ok := tr.FirstEdge()
	if !ok {
		t.Fatal("no edge")
	}
	if _, err := eng.OptimizeEdge(tr, ed); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(50, func() {
		if _, err := eng.LogLikelihood(tr); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("warm LogLikelihood allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := eng.OptimizeEdge(tr, ed); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("warm OptimizeEdge allocates %.1f/op, want 0", n)
	}
}

// TestVectorCombine2MatchesScalar pins the AVX2 fused-combine kernel to
// the scalar reference bit for bit: a float64 engine with the vector
// path enabled must produce byte-identical log-likelihoods, optimized
// branch lengths, and trees to one forced onto segCombine2 — including
// on the deep caterpillar, where the vector kernel's bail-to-scalar
// rescale protocol is exercised heavily.
func TestVectorCombine2MatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 kernel unavailable on this host")
	}
	run := func(name string, m model.Model, p *seq.Patterns, tr *tree.Tree) {
		vec, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		sca, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if vec.bc2 == nil {
			t.Fatalf("%s: vector engine has no broadcast tables despite AVX2", name)
		}
		sca.bc2 = nil // force the scalar segCombine2 path

		tv, ts := tr.Clone(), tr.Clone()
		lv, err := vec.LogLikelihood(tv)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := sca.LogLikelihood(ts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(lv) != math.Float64bits(ls) {
			t.Errorf("%s: vector lnL %.17g not bit-identical to scalar %.17g", name, lv, ls)
		}
		ov, err := vec.OptimizeBranches(tv, OptOptions{Passes: 3})
		if err != nil {
			t.Fatal(err)
		}
		os, err := sca.OptimizeBranches(ts, OptOptions{Passes: 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ov) != math.Float64bits(os) {
			t.Errorf("%s: vector optimized lnL %.17g != scalar %.17g", name, ov, os)
		}
		if tv.Newick() != ts.Newick() {
			t.Errorf("%s: vector-optimized tree differs from scalar:\n got %s\nwant %s",
				name, tv.Newick(), ts.Newick())
		}
	}

	m, p, tr := shardFixture(t, 17, 14, 500)
	run("random", m, p, tr)
	mc, pc, trc := caterpillarFixture(t, 43, 40, 250)
	run("caterpillar", mc, pc, trc)
}
