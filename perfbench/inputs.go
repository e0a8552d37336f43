package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// kind selects the runtime a workload drives.
type kind int

const (
	kindSerial kind = iota // mlsearch.Run, Serial transport
	kindTCP                // mlsearch.Run, TCP transport, ServeElastic workers
	kindServe              // serve.NewServer(...).Handler() over httptest
)

// workload is one benchmark workload: a runtime and the shape of its
// simulated inputs. Every search uses one jumble and rearrangement
// extent 1, fastDNAml's default.
type workload struct {
	Name  string
	Kind  kind
	Taxa  int
	Sites int
	// DataSeeds are the simulate.New seeds of the input alignments: one
	// per search workload, one per tenant for serve.
	DataSeeds []int64
	// SearchSeed is the jumble seed of a search workload's one search.
	SearchSeed int64
	// Workers is the number of ServeElastic workers of a TCP workload.
	Workers int
	// Rate is the serve workload's open-loop arrival rate (jobs/s).
	Rate float64
}

// workloads lists the benchmark's workloads and their test-sized
// twins (the *-tiny names), which run the same code on small inputs.
var workloads = []workload{
	{Name: "serial-40x1200", Kind: kindSerial, Taxa: 40, Sites: 1200, DataSeeds: []int64{3}, SearchSeed: 1},
	{Name: "tcp2-64x200", Kind: kindTCP, Taxa: 64, Sites: 200, DataSeeds: []int64{3}, SearchSeed: 1, Workers: 2},
	{Name: "serve-16x300", Kind: kindServe, Taxa: 16, Sites: 300, DataSeeds: []int64{5, 6}, Rate: 2.5},
	{Name: "serial-tiny", Kind: kindSerial, Taxa: 8, Sites: 100, DataSeeds: []int64{3}, SearchSeed: 1},
	{Name: "tcp2-tiny", Kind: kindTCP, Taxa: 8, Sites: 100, DataSeeds: []int64{3}, SearchSeed: 1, Workers: 2},
	{Name: "serve-tiny", Kind: kindServe, Taxa: 8, Sites: 100, DataSeeds: []int64{5, 6}, Rate: 8},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("perfbench: unknown workload %q", name)
}

// pins holds what a correct program must produce: the SHA-256 of every
// generated PHYLIP input, and each search workload's reference result.
type pins struct {
	Inputs     map[string]string    `json:"inputs"`
	References map[string]reference `json:"references"`
}

// reference is a search workload's pinned best tree and lnL.
type reference struct {
	Newick string  `json:"newick"`
	LnL    float64 `json:"lnl"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("perfbench: pins.json: %w", err)
	}
	return p, nil
}

// inputKey names one generated alignment in pins.json.
func inputKey(w workload, i int) string {
	return fmt.Sprintf("%dx%d-seed%d", w.Taxa, w.Sites, w.DataSeeds[i])
}

// dataset is one generated, checked, and compressed alignment.
type dataset struct {
	Phylip []byte
	Cfg    mlsearch.Config
	// Generate and Compress time the two halves of input set-up.
	Generate, Compress time.Duration
}

// makeDataset simulates the i-th alignment of w, checks its PHYLIP
// bytes against the pin (when one is given), then parses, compresses,
// and builds the default model. GammaAlpha is 0: the search model has
// no rate categories, so gamma would change only the pattern count.
func makeDataset(w workload, i int, pinned string) (*dataset, error) {
	t0 := time.Now()
	ds, err := simulate.New(simulate.Options{Taxa: w.Taxa, Sites: w.Sites, Seed: w.DataSeeds[i], GammaAlpha: 0})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := seq.WritePhylip(&buf, ds.Alignment, 0); err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	if pinned != "" {
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pinned {
			return nil, fmt.Errorf("perfbench: input %s has SHA-256 %s, pinned %s: the generator changed", inputKey(w, i), got, pinned)
		}
	}
	t1 := time.Now()
	a, err := seq.ReadPhylip(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	pat, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		return nil, err
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		return nil, err
	}
	return &dataset{
		Phylip: buf.Bytes(),
		Cfg: mlsearch.Config{
			Taxa: a.Names, Patterns: pat, Model: m,
			Seed: w.SearchSeed, RearrangeExtent: 1,
		},
		Generate: gen,
		Compress: time.Since(t1),
	}, nil
}

// phylipSHA returns the hex SHA-256 of a PHYLIP text.
func phylipSHA(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
