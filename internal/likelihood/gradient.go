package likelihood

import (
	"fmt"

	"repro/internal/tree"
)

// Linear-time all-branches gradient and simultaneous branch smoothing
// (Ji et al., "Gradients do grow on trees", arXiv:1905.12146).
//
// The gradient of the total log-likelihood with respect to every branch
// length is available in O(N) kernel work: the post-order pass fills
// each node's down-partial (the subtree CLV, already what the directed
// cache stores), the pre-order pass fills each up-partial — which in
// the per-directed-edge cache is just partial(parent, child), the rest
// of the tree seen across the edge — and then every edge's ∂lnL/∂z and
// ∂²lnL/∂z² fall out of one shard-ordered reduction over its two directed
// partials. Both passes run through the same memoized partial()
// recursion the evaluator uses, so they reuse the fused combine2/AVX2
// machinery and cost exactly one fill per directed edge per round.
//
// Simultaneous smoothing applies one damped Newton step to every
// branch at once (a Jacobi iteration, against the sweep's Gauss-Seidel):
// each edge's step is taken against the frozen round-start partials —
// well-defined, because an edge's own partials do not depend on its own
// length — and all updates land together. No branch changes mid-round,
// so the CLV cache never churns inside a round and
// the derivative kernel needs no per-pattern log or scale counts (they
// cancel in the dl/l ratios). A backtracking line search on each
// round's update vector absorbs the overshoot the per-edge solves
// cannot see (neighboring edges compensating for the same distance),
// and a round that cannot improve the likelihood even at a tiny step
// is reverted and handed to the sequential sweep — so gradient mode is
// never worse than the sweep's optimum.

// SmoothMode selects the branch-smoothing algorithm OptimizeBranches
// runs (OptOptions.Mode).
type SmoothMode int

const (
	// SmoothSweep is the sequential per-edge Newton sweep (fastDNAml's
	// smoothing; the default).
	SmoothSweep SmoothMode = iota
	// SmoothGradient is simultaneous smoothing on the linear-time
	// all-branches gradient, with a safeguarded fallback to the sweep.
	// Engines without the GradientSmoother capability — and restricted
	// (Around/Centers) optimizations, whose regions are too small for a
	// global pass to pay — run the sweep regardless.
	SmoothGradient
)

// String names the mode as ParseSmoothMode accepts it.
func (m SmoothMode) String() string {
	switch m {
	case SmoothSweep:
		return "sweep"
	case SmoothGradient:
		return "gradient"
	}
	return fmt.Sprintf("smoothmode(%d)", int(m))
}

// ParseSmoothMode parses a -smooth-mode flag value: "sweep" (or "") and
// "gradient" (or "grad").
func ParseSmoothMode(s string) (SmoothMode, error) {
	switch s {
	case "", "sweep":
		return SmoothSweep, nil
	case "gradient", "grad":
		return SmoothGradient, nil
	}
	return SmoothSweep, fmt.Errorf("likelihood: unknown smooth mode %q (want sweep or gradient)", s)
}

// BranchGrad is one branch's entry in the all-branches gradient: the
// edge (A on the anchor side), the length the derivatives were
// evaluated at, and the first/second derivatives of the total
// log-likelihood with respect to that length.
type BranchGrad struct {
	A, B      *tree.Node
	Z, D1, D2 float64
}

// BranchGradients computes the gradient (and diagonal Hessian) of the
// tree's log-likelihood with respect to every branch length at the
// current lengths, appending one entry per edge to dst (pre-order from
// a deterministic anchor, children in node-ID order) and returning the
// extended slice plus the tree's log-likelihood. The tree is not
// modified. Total kernel work is linear in the number of branches:
// one CLV fill per directed edge not already cached, one gradient
// reduction per edge, and a single log-likelihood reduction.
func (e *CachedEngine) BranchGradients(t *tree.Tree, dst []BranchGrad) ([]BranchGrad, float64, error) {
	defer e.endEval(e.beginEval())
	if err := e.checkTree(t); err != nil {
		return dst, 0, err
	}
	e.ensureBuffers(t.MaxID())
	return e.branchGradients(t, dst)
}

// branchGradients is the uninstrumented core of BranchGradients, shared
// with the smoothing loop (which owns the eval-time accounting).
func (e *CachedEngine) branchGradients(t *tree.Tree, dst []BranchGrad) ([]BranchGrad, float64, error) {
	dst = gradCollect(dst[:0], smoothAnchor(t), nil)
	if len(dst) == 0 {
		return dst, 0, fmt.Errorf("likelihood: tree has no edges")
	}
	// Pre-order edge walk: partial(A, B) is the up-partial (rest of the
	// tree seen from B), filled top-down so deeper edges reuse the
	// shallower fills; partial(B, A) is the cached down-partial.
	for i := range dst {
		g := &dst[i]
		a, _ := e.partial(g.A, g.B)
		b, _ := e.partial(g.B, g.A)
		g.D1, g.D2 = e.edgeGradient(a, b, g.Z)
	}
	// Round log-likelihood at the first edge: its partials are already
	// cached, so this costs one reduction kernel, no fills.
	a, _ := e.partial(dst[0].A, dst[0].B)
	b, _ := e.partial(dst[0].B, dst[0].A)
	return dst, e.edgeLogLikelihood(a, b, dst[0].Z), nil
}

// gradCollect appends one BranchGrad per edge below u (excluding the
// edge to p) in pre-order, children in node-ID order — the same
// edit-history-independent order smoothPass visits. Selection sort over
// the (≤3) neighbors keeps the walk allocation-free.
func gradCollect(dst []BranchGrad, u, p *tree.Node) []BranchGrad {
	lastID := -1
	for range u.Nbr {
		ci := -1
		for i, nb := range u.Nbr {
			if nb == p || nb.ID <= lastID {
				continue
			}
			if ci < 0 || nb.ID < u.Nbr[ci].ID {
				ci = i
			}
		}
		if ci < 0 {
			break
		}
		c := u.Nbr[ci]
		lastID = c.ID
		dst = append(dst, BranchGrad{A: u, B: c, Z: u.Len[ci]})
		dst = gradCollect(dst, c, u)
	}
	return dst
}

// smoothAnchor picks the deterministic traversal root OptimizeBranches
// and BranchGradients share: any node, preferring an inner one.
func smoothAnchor(t *tree.Tree) *tree.Node {
	anchor := t.AnyNode()
	if anchor.Leaf() {
		// Fall back to its neighbor when the tree is a single cherry.
		if anchor.Degree() > 0 && !anchor.Nbr[0].Leaf() {
			anchor = anchor.Nbr[0]
		}
	}
	return anchor
}

// edgeGradient computes d/dz and d²/dz² of the edge log-likelihood at z
// from the two directed partials through the Newton path itself: one
// sumtable build and one derivative-only evaluation, so the gradient is
// bit-identical to what a Newton iterate at the same length sees.
func (e *CachedEngine) edgeGradient(a, b clvRef, z float64) (float64, float64) {
	e.buildSumtable(a, b)
	return e.newtonDerivs(z)
}

// gradRoundFactor scales the pass budget for gradient rounds: a Jacobi
// round is several times cheaper than a sweep pass but may need more of
// them to reach the same tolerance, so the budget keeps total work
// bounded by the sweep's without starving convergence.
const gradRoundFactor = 4

// gradMaxBacktrack bounds the step halvings of the round line search.
// Each halving costs one tree evaluation; a round that cannot improve
// the likelihood at 1/16 of the Newton step is close enough to a
// coupled saddle that the sequential sweep should finish the job.
const gradMaxBacktrack = 4

// optimizeBranchesGradient is OptimizeBranches in SmoothGradient mode:
// rounds of (all-branches gradient → one damped Newton step per edge →
// apply the whole update vector at once), Tol-gated on the tree
// likelihood after each round. A single seeded step per round keeps
// the round's kernel cost at exactly one derivative reduction per edge
// (iterating the 1-D solves to convergence would triple it for no
// fewer rounds — near the optimum one Newton step is the exact solve,
// and far from it the exact solve overshoots anyway because it cannot
// see neighboring edges moving). What the simultaneous (Jacobi) step
// ignores is that coupling, so it can overshoot collectively. The
// safeguard is a backtracking line search on the update direction:
// halve the step toward the round-start lengths until the likelihood
// improves, and only if gradMaxBacktrack halvings all fail, revert the
// round and fall back to the sequential sweep. The post-round
// evaluation is not overhead — its CLV fills are exactly the
// down-partials the next round's gradient pass needs.
func (e *CachedEngine) optimizeBranchesGradient(t *tree.Tree, opt OptOptions, anchor *tree.Node) (float64, error) {
	lnL, err := e.LogLikelihood(t)
	if err != nil {
		return 0, err
	}
	rounds := opt.Passes * gradRoundFactor
	for round := 0; round < rounds; round++ {
		e.gradBuf, _, err = e.branchGradients(t, e.gradBuf)
		if err != nil {
			return 0, err
		}
		prev := lnL
		if cap(e.gradOld) < len(e.gradBuf) {
			e.gradOld = make([]float64, len(e.gradBuf))
		}
		e.gradOld = e.gradOld[:len(e.gradBuf)]
		// One damped Newton step per edge from the derivatives the
		// gradient pass already computed — no extra kernel work.
		for i := range e.gradBuf {
			g := &e.gradBuf[i]
			e.gradOld[i] = g.Z
			z, _ := newtonStep(clampLen(g.Z), g.D1, g.D2)
			g.Z = z
		}
		step := 1.0
		for halves := 0; ; halves++ {
			for i := range e.gradBuf {
				g := &e.gradBuf[i]
				tree.SetLen(g.A, g.B, e.gradOld[i]+step*(g.Z-e.gradOld[i]))
			}
			lnL, err = e.LogLikelihood(t)
			if err != nil {
				return 0, err
			}
			if lnL >= prev {
				break
			}
			if halves == gradMaxBacktrack {
				if prev-lnL < opt.Tol {
					// No improving step exists, but the loss is within
					// the requested tolerance. Restore the better
					// round-start state and report convergence.
					for i := range e.gradBuf {
						tree.SetLen(e.gradBuf[i].A, e.gradBuf[i].B, e.gradOld[i])
					}
					return prev, nil
				}
				return e.gradFallback(t, opt, anchor)
			}
			step /= 2
		}
		e.stats.GradPasses++
		if lnL-prev < opt.Tol {
			return lnL, nil
		}
	}
	return lnL, nil
}

// gradFallback reverts the failed simultaneous update (restoring the
// round-start lengths) and finishes the optimization with the
// sequential sweep.
func (e *CachedEngine) gradFallback(t *tree.Tree, opt OptOptions, anchor *tree.Node) (float64, error) {
	for i := range e.gradBuf {
		tree.SetLen(e.gradBuf[i].A, e.gradBuf[i].B, e.gradOld[i])
	}
	e.stats.GradFallbacks++
	return e.optimizeBranchesSweep(t, opt, anchor, nil)
}
