// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload's inputs from a seed, runs them through the
// program's public entry points (mlsearch.Run, mlsearch.ServeElastic,
// serve.NewServer(...).Handler()), checks every output, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// run reports the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// result is one run's outcome.
type result struct {
	Attempted, Failed int
	Metrics           *metricSet
	Notes             []string
	errs              []error
}

// fail records a failed operation; failures are counted, never dropped.
func (r *result) fail(err error) {
	r.Failed++
	r.errs = append(r.errs, err)
}

// line is the final JSON object.
func (r *result) line() ([]byte, error) {
	failed := r.Failed
	if failed > r.Attempted {
		failed = r.Attempted
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, failed, r.Metrics.m})
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		pin     = flag.Bool("pin", false, "print pins.json for the current program and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *pin); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, pin bool) error {
	fmt.Println(envHeader())
	if pin {
		return writePins()
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	var res *result
	if w.Kind == kindServe {
		res, err = runServeWorkload(w, p, seed, seconds, traced)
	} else {
		res, err = runSearchWorkload(w, p, seconds, traced)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d trace %v\n", w.Name, seed, traced)
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	for _, e := range res.errs {
		fmt.Println("# FAILED:", e)
	}
	fmt.Print(prefixLines(res.Metrics.table(), "# "))
	b, err := res.line()
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// envHeader describes the machine a run measured.
func envHeader() string {
	model, avx2 := "unknown", "off"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				model = strings.TrimSpace(v)
			case "flags":
				if strings.Contains(" "+v+" ", " avx2 ") {
					avx2 = "on"
				}
			}
		}
	}
	return fmt.Sprintf("# env go=%s GOMAXPROCS=%d nproc=%d cpu=%q avx2=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), model, avx2)
}

func prefixLines(s, prefix string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if line != "" {
			b.WriteString(prefix + line)
		}
	}
	return b.String()
}

// writePins prints a pins.json for the program as it is: the SHA-256
// of every workload's input and each search workload's reference
// result from one untraced search.
func writePins() error {
	p := pins{Inputs: map[string]string{}, References: map[string]reference{}}
	for _, w := range workloads {
		for i := range w.DataSeeds {
			ds, err := makeDataset(w, i, "")
			if err != nil {
				return err
			}
			p.Inputs[inputKey(w, i)] = phylipSHA(ds.Phylip)
			if w.Kind == kindServe {
				continue
			}
			o, err := runSearch(w, ds, false)
			if err != nil {
				return err
			}
			p.References[w.Name] = reference{Newick: o.Res.BestNewick, LnL: o.Res.LnL}
		}
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
