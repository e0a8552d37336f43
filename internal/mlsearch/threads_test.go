package mlsearch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// TestThreadedAddRoundBitIdentical: one full add round of the 41-taxon
// fixture — a shared-base smooth task plus an insertion-score task per
// insertion edge — must return bit-identical log-likelihoods and trees
// whatever order one engine evaluates the tasks in. This is the
// determinism contract the paper's work distribution relies on: a tree's
// likelihood must not depend on which worker computed it or what that
// worker computed before. (The name predates the removal of the kernel
// thread pool, whose thread-count axis this test once also covered; the
// golden test pins the serial results themselves across commits.)
func TestThreadedAddRoundBitIdentical(t *testing.T) {
	cfg := testConfig(t, 41, 500, 3)
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	full, err := tree.RandomTree(norm.Taxa, rng, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	const addTaxon = 40
	if err := full.RemoveLeaf(addTaxon); err != nil {
		t.Fatal(err)
	}
	base := full.Newick()
	nEdges := len(full.InsertionEdges())
	if nEdges < 20 {
		t.Fatalf("only %d insertion edges", nEdges)
	}

	tasks := []Task{{ID: 0, Round: 1, Newick: base, LocalTaxon: -1, Passes: 2, KeepTree: true}}
	for i := 0; i < nEdges; i++ {
		tasks = append(tasks, Task{
			ID: uint64(i + 1), Round: 1, BaseNewick: base,
			LocalTaxon: addTaxon, InsertEdge: int32(i), Passes: 2, KeepTree: true,
		})
	}

	// evaluate runs the tasks in the given order on one fresh engine and
	// returns the results indexed by task ID.
	evaluate := func(order []int) []Result {
		eng, err := likelihood.New(norm.Model, norm.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(eng, norm.Taxa)
		out := make([]Result, len(tasks))
		for _, i := range order {
			r, err := ev.Evaluate(tasks[i])
			if err != nil {
				t.Fatalf("task %d: %v", tasks[i].ID, err)
			}
			out[i] = r
		}
		return out
	}
	forward := make([]int, len(tasks))
	reverse := make([]int, len(tasks))
	for i := range tasks {
		forward[i], reverse[len(tasks)-1-i] = i, i
	}

	ref := evaluate(forward)
	got := evaluate(reverse)
	bestRef, best := 0, 0
	for i, r := range got {
		if math.Float64bits(r.LnL) != math.Float64bits(ref[i].LnL) {
			t.Errorf("task %d: lnL %.17g in reverse order != %.17g in order", r.TaskID, r.LnL, ref[i].LnL)
		}
		if r.Newick != ref[i].Newick {
			t.Errorf("task %d: optimized tree depends on evaluation order", r.TaskID)
		}
		if ref[i].LnL > ref[bestRef].LnL {
			bestRef = i
		}
		if r.LnL > got[best].LnL {
			best = i
		}
	}
	if best != bestRef {
		t.Errorf("reverse order chose insertion %d, forward order chose %d", best, bestRef)
	}
}

// TestParallelMatchesSerialThreadedPipelined extends the serial-equality
// contract to the foreman's pipeline depth: depths other than the
// default, at several worker counts, must not change the answer.
func TestParallelMatchesSerialThreadedPipelined(t *testing.T) {
	cfg := testConfig(t, 8, 180, 11)
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ pipeline, workers int }{
		{1, 3},
		{2, 2},
		{3, 3},
		{4, 1},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("pipeline=%d_workers=%d", c.pipeline, c.workers), func(t *testing.T) {
			out, err := Run(cfg, RunOptions{
				Transport: Local,
				Workers:   c.workers,
				Foreman:   ForemanOptions{Pipeline: c.pipeline},
			})
			if err != nil {
				t.Fatal(err)
			}
			par := out.Results[0]
			if par.BestNewick != serial.BestNewick {
				t.Errorf("tree differs from serial")
			}
			if par.LnL != serial.LnL {
				t.Errorf("lnL %g != serial %g", par.LnL, serial.LnL)
			}
			if par.TotalTasks != serial.TotalTasks {
				t.Errorf("%d tasks != serial %d", par.TotalTasks, serial.TotalTasks)
			}
		})
	}
}
