// Package simulate generates synthetic DNA alignments by evolving
// sequences down a random tree under a substitution model. It substitutes
// for the paper's proprietary inputs: the 50- and 101-taxon (1858
// positions) and 150-taxon (1269 positions) small-subunit rRNA alignments
// from the European SSU rRNA database used in the Microsporidia research
// (paper §3). The presets match those dimensions and rRNA-like base
// composition and rate heterogeneity, so the search performs the same
// kind and amount of work as on the original data.
package simulate

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Options configure one simulated data set.
type Options struct {
	// Taxa is the number of sequences (>= 3).
	Taxa int
	// Sites is the alignment length.
	Sites int
	// Model is the substitution model to evolve under; nil uses F84
	// with rRNA-like frequencies and the default ratio.
	Model model.Model
	// Seed drives all randomness; runs are reproducible.
	Seed int64
	// MeanBranchLen is the mean of the exponential branch lengths of
	// the true tree (default 0.08, a typical rRNA depth).
	MeanBranchLen float64
	// GammaAlpha adds discrete-gamma rate heterogeneity across sites
	// when positive (rRNA sites vary greatly in rate); 0 disables.
	GammaAlpha float64
	// GammaCats is the number of gamma categories (default 4).
	GammaCats int
	// TaxonPrefix names taxa Prefix001... (default "tax").
	TaxonPrefix string
}

// RRNAFreqs approximates small-subunit rRNA base composition.
var RRNAFreqs = seq.BaseFreqs{0.253, 0.228, 0.319, 0.200}

func (o Options) withDefaults() (Options, error) {
	if o.Taxa < 3 {
		return o, fmt.Errorf("simulate: %d taxa, need >= 3", o.Taxa)
	}
	if o.Sites < 1 {
		return o, fmt.Errorf("simulate: %d sites", o.Sites)
	}
	if o.MeanBranchLen <= 0 {
		o.MeanBranchLen = 0.08
	}
	if o.GammaCats <= 0 {
		o.GammaCats = 4
	}
	if o.TaxonPrefix == "" {
		o.TaxonPrefix = "tax"
	}
	if o.Model == nil {
		m, err := model.NewF84(RRNAFreqs, model.DefaultTTRatio)
		if err != nil {
			return o, err
		}
		o.Model = m
	}
	return o, nil
}

// Dataset is a simulated alignment with its generating ("true") tree.
type Dataset struct {
	// Alignment is the simulated data.
	Alignment *seq.Alignment
	// TrueTree is the tree the sequences evolved down.
	TrueTree *tree.Tree
	// SiteRates are the per-site relative rates used (all 1 when
	// GammaAlpha is 0).
	SiteRates []float64
}

// New generates a data set.
func New(opt Options) (*Dataset, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	names := make([]string, opt.Taxa)
	for i := range names {
		names[i] = fmt.Sprintf("%s%03d", opt.TaxonPrefix, i+1)
	}
	tr, err := tree.RandomTree(names, rng, opt.MeanBranchLen)
	if err != nil {
		return nil, err
	}

	rates := make([]float64, opt.Sites)
	for i := range rates {
		rates[i] = 1
	}
	if opt.GammaAlpha > 0 {
		cats, err := model.DiscreteGamma(opt.GammaAlpha, opt.GammaCats)
		if err != nil {
			return nil, err
		}
		for i := range rates {
			rates[i] = cats[rng.Intn(len(cats))]
		}
	}

	a, err := evolve(tr, opt.Model, rates, rng)
	if err != nil {
		return nil, err
	}
	return &Dataset{Alignment: a, TrueTree: tr, SiteRates: rates}, nil
}

// evolve draws root states from the equilibrium frequencies and walks the
// tree, mutating each site through the model's transition matrices.
func evolve(tr *tree.Tree, m model.Model, rates []float64, rng *rand.Rand) (*seq.Alignment, error) {
	nsites := len(rates)
	freqs := m.Freqs()
	d := m.Decomposition()

	// Distinct rates -> transition matrix cache per (rate, branch) pair
	// is rebuilt per edge; group sites by rate to amortize. The groups
	// are walked in ascending rate order: the walk draws from the seeded
	// rng, so a map's randomized iteration order would make the output
	// differ from run to run.
	rateIdx := map[float64][]int{}
	for s, r := range rates {
		rateIdx[r] = append(rateIdx[r], s)
	}
	rateKeys := make([]float64, 0, len(rateIdx))
	for r := range rateIdx { // order-insensitive: sorted below
		rateKeys = append(rateKeys, r)
	}
	sort.Float64s(rateKeys)

	root := tr.AnyNode()
	states := map[int][]byte{} // node ID -> per-site base indices
	rootStates := make([]byte, nsites)
	for s := range rootStates {
		rootStates[s] = sampleIndex(rng, freqs[0], freqs[1], freqs[2], freqs[3])
	}
	states[root.ID] = rootStates

	var walk func(n, parent *tree.Node) error
	walk = func(n, parent *tree.Node) error {
		for i, child := range n.Nbr {
			if child == parent {
				continue
			}
			z := n.Len[i]
			cur := states[n.ID]
			next := make([]byte, nsites)
			var pm model.PMatrix
			for _, r := range rateKeys {
				d.Probs(z, r, &pm)
				for _, s := range rateIdx[r] {
					row := pm[cur[s]]
					next[s] = sampleIndex(rng, row[0], row[1], row[2], row[3])
				}
			}
			states[child.ID] = next
			if err := walk(child, n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, nil); err != nil {
		return nil, err
	}

	a := seq.NewAlignment(len(tr.Taxa))
	for taxon := 0; taxon < len(tr.Taxa); taxon++ {
		leaf := tr.LeafByTaxon(taxon)
		if leaf == nil {
			return nil, fmt.Errorf("simulate: taxon %d missing from tree", taxon)
		}
		st := states[leaf.ID]
		coded := make([]seq.Code, nsites)
		for s := range coded {
			coded[s] = seq.Code(1 << uint(st[s]))
		}
		if err := a.AddCoded(tr.Taxa[taxon], coded); err != nil {
			return nil, err
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// sampleIndex draws 0..3 with the given (normalized) weights.
func sampleIndex(rng *rand.Rand, w0, w1, w2, w3 float64) byte {
	u := rng.Float64() * (w0 + w1 + w2 + w3)
	switch {
	case u < w0:
		return 0
	case u < w0+w1:
		return 1
	case u < w0+w1+w2:
		return 2
	default:
		return 3
	}
}

// PaperPreset names the three data sets of the paper's evaluation.
type PaperPreset string

// The paper's three data sets (§3: "datasets including 50, 101, and 150
// taxa", alignments of 1858 positions for the 50- and 101-sequence sets
// and 1269 positions for the 150-sequence set).
const (
	Preset50  PaperPreset = "50taxa"
	Preset101 PaperPreset = "101taxa"
	Preset150 PaperPreset = "150taxa"
)

// PaperOptions returns the simulation options matching a paper data set.
func PaperOptions(p PaperPreset, seed int64) (Options, error) {
	switch p {
	case Preset50:
		return Options{Taxa: 50, Sites: 1858, Seed: seed, GammaAlpha: 0.6}, nil
	case Preset101:
		return Options{Taxa: 101, Sites: 1858, Seed: seed, GammaAlpha: 0.6}, nil
	case Preset150:
		return Options{Taxa: 150, Sites: 1269, Seed: seed, GammaAlpha: 0.6}, nil
	}
	return Options{}, fmt.Errorf("simulate: unknown preset %q", p)
}
