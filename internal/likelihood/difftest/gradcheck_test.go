package difftest

import "testing"

// TestDifferentialGradientCheck is the finite-difference acceptance gate
// for the linear-time gradient: across the seeded case matrix, every
// branch's analytic D1/D2 from the cached engine must match central
// differences of the reference engine's log-likelihood within the
// documented GradTolerance. The subtest names the CLV storage format.
func TestDifferentialGradientCheck(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		rep, err := GradientCheck(Options{
			EngineA: "cached",
			Cases:   30,
			Seed:    2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cases < 30 || rep.Edges == 0 {
			t.Fatalf("%d cases / %d edges ran", rep.Cases, rep.Edges)
		}
		for _, f := range rep.Failures {
			t.Error(f)
		}
		t.Logf("%d cases, %d edges, max diffs: d1 %.3g, d2 %.3g",
			rep.Cases, rep.Edges, rep.MaxD1Diff, rep.MaxD2Diff)
	})
}

// TestDifferentialGradientCheckNoCapability: the check errors (rather
// than silently passing) on an engine without the GradientSmoother
// capability.
func TestDifferentialGradientCheckNoCapability(t *testing.T) {
	if _, err := GradientCheck(Options{EngineA: "reference", Cases: 1}); err == nil {
		t.Fatal("gradient check on a gradient-less engine did not error")
	}
}
