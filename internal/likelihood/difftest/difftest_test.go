package difftest

import "testing"

// TestDifferentialCachedVsReference is the acceptance gate for the
// Engine seam: the CLV-cached production engine and the direct
// post-order reference engine must agree on total log-likelihoods,
// per-site log-likelihoods, and Newton-optimized branch lengths across
// 50+ seeded random tree/model cases. The subtest names the CLV storage
// format, float64, the only one the engines have.
func TestDifferentialCachedVsReference(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		rep, err := Run(Options{
			EngineA: "cached",
			EngineB: "reference",
			Cases:   55,
			Seed:    1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cases < 50 {
			t.Fatalf("only %d cases ran, want >= 50", rep.Cases)
		}
		for _, f := range rep.Failures {
			t.Error(f)
		}
		t.Logf("%d cases, max diffs: lnL %.3g, site %.3g, len %.3g",
			rep.Cases, rep.MaxLnLDiff, rep.MaxSiteDiff, rep.MaxLenDiff)
	})
}

// TestDifferentialSelf sanity-checks the harness itself: an engine
// compared against itself must agree to (better than) any tolerance, and
// the case generator must be deterministic for a fixed seed.
func TestDifferentialSelf(t *testing.T) {
	rep, err := Run(Options{
		EngineA: "reference",
		EngineB: "reference",
		Cases:   8,
		Seed:    77,
		Tol:     Tolerance{LnLRel: 1e-14, LnLAbs: 1e-12, SiteRel: 1e-14, SiteAbs: 1e-12, OptRel: 1e-14, OptAbs: 1e-12, LenRel: 1e-14, LenAbs: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Error(f)
	}
}

// TestDifferentialUnknownEngine: harness errors (not failures) on
// unregistered backend names.
func TestDifferentialUnknownEngine(t *testing.T) {
	if _, err := Run(Options{EngineA: "no-such-engine", Cases: 1}); err == nil {
		t.Fatal("unknown engine name did not error")
	}
}
