package likelihood

import (
	"testing"

	"repro/internal/tree"
)

// Kernel benchmarks. Run with
//
//	go test -run XXX -bench 'DownPartial|NewtonEdge|FullSmooth|GradientSmooth' -benchmem ./internal/likelihood/
//
// (make bench). ReportAllocs asserts the zero-alloc steady state.

// benchEngine builds a warmed engine and tree.
func benchEngine(b *testing.B) (*CachedEngine, *tree.Tree) {
	b.Helper()
	m, p, tr := shardFixture(b, 17, 24, 3000)
	eng, err := New(m, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.LogLikelihood(tr); err != nil {
		b.Fatal(err)
	}
	return eng, tr
}

// BenchmarkDownPartialCached measures the pruning recompute path with a
// warm arena: perturbing one interior branch per iteration invalidates
// the chain of CLVs that depend on it, so each evaluation re-runs the
// combine/rescale kernels against cached children — the dominant kernel
// of an add or rearrangement round.
func BenchmarkDownPartialCached(b *testing.B) {
	eng, tr := benchEngine(b)
	internal := tr.InternalEdges()
	if len(internal) == 0 {
		b.Fatal("no internal edges")
	}
	ed := internal[len(internal)/2]
	z := ed.Length()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.SetLen(ed.A, ed.B, z+float64(i%2)*1e-6)
		if _, err := eng.LogLikelihood(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewtonEdge measures single-edge Newton-Raphson optimization
// on a warm cache: the sumtable build and derivative kernels dominate.
func BenchmarkNewtonEdge(b *testing.B) {
	eng, tr := benchEngine(b)
	ed, ok := tr.FirstEdge()
	if !ok {
		b.Fatal("no edge")
	}
	if _, err := eng.OptimizeEdge(tr, ed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.OptimizeEdge(tr, ed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSmooth measures full branch smoothing to convergence —
// the dominant cost of round-best re-optimization in the search. Each
// iteration restarts from the same deterministic perturbation of the
// converged optimum (alternate edges scaled ×1.6 / ×0.6), so every op
// performs identical work, and passes-to-convergence is reported as a
// metric alongside wall time.
func BenchmarkFullSmooth(b *testing.B) { benchSmoothConverge(b, SmoothSweep) }

// BenchmarkGradientSmooth is BenchmarkFullSmooth in SmoothGradient mode:
// same fixture, same perturbed start, same convergence gate, so the
// ns/op ratio between the two is the gradient smoother's speedup to the
// same optimum.
func BenchmarkGradientSmooth(b *testing.B) { benchSmoothConverge(b, SmoothGradient) }

func benchSmoothConverge(b *testing.B, mode SmoothMode) {
	// The caterpillar fixture is well-specified for its data (chain-
	// correlated rows), so the optimum has interior branch lengths and
	// both smoothing modes converge to it cleanly.
	m, p, tr := caterpillarFixture(b, 17, 24, 3000)
	eng, err := New(m, p)
	if err != nil {
		b.Fatal(err)
	}
	opt := OptOptions{Passes: 16, Mode: mode}
	// Converge once, snapshot the optimum, and restart every iteration
	// from the same deterministic perturbation of it.
	if _, err := eng.OptimizeBranches(tr, opt); err != nil {
		b.Fatal(err)
	}
	edges := tr.Edges()
	lens := make([]float64, len(edges))
	for i, ed := range edges {
		lens[i] = ed.Length()
	}
	perturb := func() {
		for i, ed := range edges {
			f := 1.6
			if i%2 == 1 {
				f = 0.6
			}
			tree.SetLen(ed.A, ed.B, lens[i]*f)
		}
	}
	// One perturbed solve to warm the arena and smoothing scratch.
	perturb()
	if _, err := eng.OptimizeBranches(tr, opt); err != nil {
		b.Fatal(err)
	}
	eng.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perturb()
		if _, err := eng.OptimizeBranches(tr, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := eng.Stats()
	b.ReportMetric(float64(st.SmoothPasses+st.GradPasses)/float64(b.N), "passes/op")
	if st.GradFallbacks > 0 {
		b.ReportMetric(float64(st.GradFallbacks)/float64(b.N), "fallbacks/op")
	}
}
