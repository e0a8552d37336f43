package mlsearch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/tree"
)

// TestGoldenFloat64Output pins float64 output bytes across commits: the
// SHA-256 of a digest text and the bits of one log-likelihood, per case.
// Every other determinism test compares runs within one build; this one
// fails when a change to the engine, evaluator or search moves a single
// last bit. A change that means to move them re-pins the table in its
// own commit and says so.
func TestGoldenFloat64Output(t *testing.T) {
	if goldenMayFuse {
		t.Skip("golden float64 bits hold only on amd64 below GOAMD64=v3: elsewhere the compiler may fuse multiply-adds and change last bits")
	}
	cases := []struct {
		name    string
		run     func(t *testing.T) (digest string, lnL float64)
		sha     string
		lnLBits uint64
	}{
		{"serial-search-12x400-gamma", goldenSerialSearch,
			"473c5957e2c7fdf146d888befda2805a56545c08cb6a783436b8ba6a7997ae81", 0xc0a21b57badc73bc},
		{"add-round-41x500", goldenAddRound,
			"f0c15a474f7966f2ad8053b5cfee3f46429588e44027d276db9834bb6a15b94e", 0xc0c071baf9630a88},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			digest, lnL := c.run(t)
			sum := sha256.Sum256([]byte(digest))
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Errorf("digest SHA-256 %s, pinned %s", got, c.sha)
			}
			if got := math.Float64bits(lnL); got != c.lnLBits {
				t.Errorf("lnL %.17g bits %#016x, pinned %#016x", lnL, got, c.lnLBits)
			}
		})
	}
}

// goldenSerialSearch runs a small serial search on gamma-rate data (several
// rate classes and several kernel shards) and returns its best Newick and
// log-likelihood.
func goldenSerialSearch(t *testing.T) (string, float64) {
	ds, err := simulate.New(simulate.Options{Taxa: 12, Sites: 400, Seed: 5, GammaAlpha: 0.5, MeanBranchLen: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDefaultModel(pat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSerial(Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: 7, RearrangeExtent: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.BestNewick, res.LnL
}

// goldenAddRound evaluates one add round of the 41-taxon fixture: a
// shared-base smooth task plus an insertion-score task per edge. The
// digest lists every result's optimized tree and lnL bits in task order;
// the returned lnL is the best insertion's.
func goldenAddRound(t *testing.T) (string, float64) {
	cfg := testConfig(t, 41, 500, 3)
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	full, err := tree.RandomTree(norm.Taxa, rand.New(rand.NewSource(3)), 0.12)
	if err != nil {
		t.Fatal(err)
	}
	const addTaxon = 40
	if err := full.RemoveLeaf(addTaxon); err != nil {
		t.Fatal(err)
	}
	base := full.Newick()
	tasks := []Task{{ID: 0, Round: 1, Newick: base, LocalTaxon: -1, Passes: 2, KeepTree: true}}
	for i := range full.InsertionEdges() {
		tasks = append(tasks, Task{
			ID: uint64(i + 1), Round: 1, BaseNewick: base,
			LocalTaxon: addTaxon, InsertEdge: int32(i), Passes: 2, KeepTree: true,
		})
	}
	eng, err := likelihood.New(norm.Model, norm.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(eng, norm.Taxa)
	var b strings.Builder
	best := math.Inf(-1)
	for _, task := range tasks {
		r, err := ev.Evaluate(task)
		if err != nil {
			t.Fatalf("task %d: %v", task.ID, err)
		}
		fmt.Fprintf(&b, "%d %016x %s\n", r.TaskID, math.Float64bits(r.LnL), r.Newick)
		if task.ID > 0 && r.LnL > best {
			best = r.LnL
		}
	}
	return b.String(), best
}
