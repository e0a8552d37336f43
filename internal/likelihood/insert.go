package likelihood

import (
	"fmt"

	"repro/internal/tree"
)

// Shared-base-tree insertion scoring (paper step 3): a stepwise-addition
// round tries the new taxon on every edge of the same base tree. Instead
// of building each candidate tree and re-running full pruning passes over
// it, an InsertScorer evaluates a candidate entirely at its insertion
// edge: the two directed partials of the edge come from the CLV cache
// (computed once per base tree, shared by every candidate), and the new
// leaf's junction is optimized by combining those two vectors with the
// leaf's tip vector — O(patterns) work per candidate instead of
// O(nodes · patterns).

// InsertScore reports one scored candidate insertion: the log-likelihood
// of the candidate tree and the optimized lengths of the three branches
// meeting at the new junction.
type InsertScore struct {
	LnL float64
	// LenA and LenB are the optimized lengths from the junction toward
	// the insertion edge's A and B endpoints; LenLeaf toward the new
	// leaf.
	LenA, LenB, LenLeaf float64
}

// cachedInsertScorer is the CachedEngine's InsertScorer: it draws the
// insertion edge's directed partials from the CLV cache and reuses the
// engine's arena scratch, so only the most recently created scorer of an
// engine may be used. The base tree must not be mutated between Score
// calls. Not safe for concurrent use.
type cachedInsertScorer struct {
	e     *CachedEngine
	t     *tree.Tree
	taxon int

	// junction and rest-of-junction scratch vectors, views into the
	// engine arena, reused per call (and across scorers).
	j, rest clvRef
}

// NewInsertScorer prepares scoring of candidate insertions of taxon into
// base. The taxon must be covered by the data set and absent from base.
func (e *CachedEngine) NewInsertScorer(base *tree.Tree, taxon int) (InsertScorer, error) {
	if err := e.checkTree(base); err != nil {
		return nil, err
	}
	if taxon < 0 || taxon >= e.pat.NumSeqs() {
		return nil, fmt.Errorf("likelihood: insert taxon %d: %w", taxon, ErrTaxonOutsideData)
	}
	if base.LeafByTaxon(taxon) != nil {
		return nil, fmt.Errorf("likelihood: insert taxon %d: %w", taxon, ErrTaxonInTree)
	}
	e.ensureBuffers(base.MaxID())
	if e.insJ.sc == nil {
		e.insJ.sc = make([]int32, e.npad)
		e.insRest.sc = make([]int32, e.npad)
		e.insJ.v = make([]float64, 4*e.npad)
		e.insRest.v = make([]float64, 4*e.npad)
	}
	return &cachedInsertScorer{
		e: e, t: base, taxon: taxon,
		j: e.insJ, rest: e.insRest,
	}, nil
}

// Score evaluates inserting the taxon on edge ed of the base tree,
// mirroring tree.InsertLeaf's starting geometry (the edge length split in
// half, the leaf branch at DefaultBranchLength) and then Newton-optimizing
// the three junction branches for the given number of passes (minimum 1).
// The base tree is not modified.
func (s *cachedInsertScorer) Score(ed tree.Edge, passes int) (InsertScore, error) {
	defer s.e.endEval(s.e.beginEval())
	a, b := ed.A, ed.B
	if a.NbrIndex(b) < 0 {
		return InsertScore{}, fmt.Errorf("likelihood: insertion edge %d-%d: %w", a.ID, b.ID, ErrEdgeNotFound)
	}
	if passes <= 0 {
		passes = 1
	}
	e := s.e
	half := ed.Length() / 2
	if half <= 0 {
		half = tree.DefaultBranchLength / 2
	}
	za, zb, zl := half, half, tree.DefaultBranchLength

	aref, _ := e.partial(a, b)
	bref, _ := e.partial(b, a)
	tip := e.tipRef(s.taxon)

	for pass := 0; pass < passes; pass++ {
		// Leaf branch against the junction of both edge sides.
		e.combine2Into(s.j, aref, bref, za, zb)
		zl = e.newtonEdge(s.j, tip, zl)

		// Branch toward A against the junction of B-side and leaf.
		e.combine2Into(s.rest, bref, tip, zb, zl)
		za = e.newtonEdge(aref, s.rest, za)

		// Branch toward B against the junction of A-side and leaf.
		e.combine2Into(s.rest, aref, tip, za, zl)
		zb = e.newtonEdge(bref, s.rest, zb)
	}

	// Final likelihood across the junction-leaf branch.
	e.combine2Into(s.j, aref, bref, za, zb)
	lnL := e.edgeLogLikelihood(s.j, tip, zl)
	return InsertScore{LnL: lnL, LenA: za, LenB: zb, LenLeaf: zl}, nil
}
