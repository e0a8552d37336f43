package main

import (
	"io"
	"strings"
	"testing"
)

func TestCompareFailsOnMissingKernel(t *testing.T) {
	base := report{Totals: map[string]float64{
		"calibration_ns": 100, "down_partial_cached_ns": 1000, "newton_edge_ns": 500, "full_smooth_ns": 9000,
	}}
	cur := report{Totals: map[string]float64{"calibration_ns": 100, "down_partial_cached_ns": 1000}}
	_, err := compare(base, cur, 0.10, io.Discard)
	if err == nil {
		t.Fatal("a current report missing baseline kernels passed the gate")
	}
	for _, name := range []string{"full_smooth", "newton_edge"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name missing kernel %s", err, name)
		}
	}
	if strings.Contains(err.Error(), "down_partial_cached") {
		t.Errorf("error %q names a kernel that is present", err)
	}
}

func TestCompareRegressions(t *testing.T) {
	base := report{Totals: map[string]float64{"calibration_ns": 100, "a_ns": 1000, "b_ns": 1000}}
	// The current host is 2x slower across the board; b also regressed
	// 20% beyond that.
	cur := report{Totals: map[string]float64{"calibration_ns": 200, "a_ns": 2000, "b_ns": 2400, "extra_ns": 5}}
	regs, err := compare(base, cur, 0.10, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.HasPrefix(regs[0], "b:") {
		t.Errorf("regressions %q, want only b", regs)
	}
}
