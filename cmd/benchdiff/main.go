// Command benchdiff compares two kernel benchmark reports (the
// BENCH_*.json files written by make bench / TestKernelBenchJSON) and
// fails when any kernel regressed beyond the allowed fraction. It is
// the gate behind `make bench-compare`: the committed
// BENCH_baseline_kernels.json pins the kernel throughput of the tree
// the current optimization round started from, and CI diffs every
// build against it, printing a markdown before/after table for the job
// summary. A baseline kernel missing from the current report fails the
// gate too, naming the kernel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/buildinfo"
)

// report is the subset of obs.BenchReport benchdiff consumes.
type report struct {
	Run    string             `json:"run"`
	Totals map[string]float64 `json:"totals"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline_kernels.json", "baseline report (committed)")
		currentPath  = flag.String("current", "bench/BENCH_kernels.json", "current report (freshly measured)")
		maxRegress   = flag.Float64("max-regress", 0.10, "fail when a kernel is this fraction slower than baseline")
	)
	versionFlag := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println("benchdiff", buildinfo.String())
		return
	}
	base, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}

	regressions, err := compare(base, cur, *maxRegress, os.Stdout)
	if err != nil {
		fatal(fmt.Errorf("%s vs %s: %w", *baselinePath, *currentPath, err))
	}
	if len(regressions) > 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: kernel regressions beyond the limit:")
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
}

// compare prints the markdown before/after table of every baseline
// kernel to out and returns one line per kernel slower than the limit.
// A baseline kernel with no current measurement is an error naming it:
// the gate must not shrink unnoticed when a benchmark is renamed or
// dropped.
func compare(base, cur report, maxRegress float64, out io.Writer) ([]string, error) {
	// Machine-speed normalization: both reports carry a calibration_ns
	// measurement (a fixed dependent float64 chain — pure CPU speed).
	// Dividing current timings by the calibration ratio cancels uniform
	// host-speed drift between the baseline capture and this run, which
	// on shared runners routinely exceeds the regression limit on its
	// own. Reports without calibration compare raw.
	scale := 1.0
	if bc, cc := base.Totals["calibration_ns"], cur.Totals["calibration_ns"]; bc > 0 && cc > 0 {
		scale = bc / cc
		fmt.Fprintf(out, "machine speed vs baseline capture: %.2fx (calibration %.0f -> %.0f ns/op)\n\n", 1/scale, bc, cc)
	}

	var keys, missing []string
	for k := range base.Totals {
		if !strings.HasSuffix(k, "_ns") || k == "calibration_ns" {
			continue
		}
		if _, ok := cur.Totals[k]; ok {
			keys = append(keys, k)
		} else {
			missing = append(missing, strings.TrimSuffix(k, "_ns"))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("current report lacks baseline kernels: %s", strings.Join(missing, ", "))
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("no comparable *_ns entries")
	}
	sort.Strings(keys)

	fmt.Fprintln(out, "| kernel | baseline ns/op | current ns/op | normalized ns/op | speedup |")
	fmt.Fprintln(out, "|---|---:|---:|---:|---:|")
	var regressions []string
	for _, k := range keys {
		b, c := base.Totals[k], cur.Totals[k]
		name := strings.TrimSuffix(k, "_ns")
		norm := c * scale
		speedup := b / norm
		fmt.Fprintf(out, "| %s | %.0f | %.0f | %.0f | %.2fx |\n", name, b, c, norm, speedup)
		if norm > b*(1+maxRegress) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op normalized (%.1f%% slower, limit %.0f%%)",
					name, b, norm, 100*(norm/b-1), 100*maxRegress))
		}
	}
	fmt.Fprintln(out)
	if len(regressions) == 0 {
		fmt.Fprintf(out, "benchdiff: %d kernels within %.0f%% of baseline\n", len(keys), 100*maxRegress)
	}
	return regressions, nil
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
