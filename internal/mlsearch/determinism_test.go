package mlsearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
)

// determinismChildEnv marks a re-executed test binary as a child of
// TestCrossProcessDeterminism: it prints its hashes and exits.
const determinismChildEnv = "FDML_DETERMINISM_CHILD"

// determinismHashes returns the SHA-256 of the PHYLIP alignment that
// `simseq -preset 50taxa -seed 1` writes, and of the best tree of a small
// serial search on a gamma-rate data set.
func determinismHashes(t *testing.T) string {
	t.Helper()
	opt, err := simulate.PaperOptions(simulate.Preset50, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := simulate.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := seq.WritePhylip(&phy, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	alnSum := sha256.Sum256(phy.Bytes())

	small, err := simulate.New(simulate.Options{Taxa: 9, Sites: 240, Seed: 5, GammaAlpha: 0.5, MeanBranchLen: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(small.Alignment, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDefaultModel(pat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSerial(Config{Taxa: small.Alignment.Names, Patterns: pat, Model: m, Seed: 7, RearrangeExtent: 1})
	if err != nil {
		t.Fatal(err)
	}
	treeSum := sha256.Sum256([]byte(res.BestNewick))
	return fmt.Sprintf("alignment=%s tree=%s", hex.EncodeToString(alnSum[:]), hex.EncodeToString(treeSum[:]))
}

// TestCrossProcessDeterminism re-executes the test binary and compares
// the hashes each process computes. In-process repeats cannot catch
// nondeterminism that is fixed per process, such as Go's randomized map
// iteration order, which once made every gamma-rate simulated alignment
// differ from run to run.
func TestCrossProcessDeterminism(t *testing.T) {
	if os.Getenv(determinismChildEnv) == "1" {
		fmt.Printf("HASHES %s\n", determinismHashes(t))
		return
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	want := determinismHashes(t)
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrossProcessDeterminism$", "-test.count=1")
		cmd.Env = append(os.Environ(), determinismChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
		var got string
		for _, line := range strings.Split(string(out), "\n") {
			if h, ok := strings.CutPrefix(line, "HASHES "); ok {
				got = h
			}
		}
		if got != want {
			t.Fatalf("child %d hashes %q, this process %q", i, got, want)
		}
	}
}
