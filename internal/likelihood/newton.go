package likelihood

import (
	"fmt"
	"math"

	"repro/internal/tree"
)

// Branch length optimization: DNAml's makenewz. The likelihood of an edge
// factorizes as L(z) = Σ_p w_p log Σ_ij π_i A_p[i] P_ij(z) B_p[j], where A
// is the conditional likelihood of one side and B of the other; P and its
// z-derivatives are closed-form (spectral decomposition), so Newton's
// method applies directly, with bisection-style fallbacks and the
// [MinBranchLength, MaxBranchLength] bounds.
//
// The smoothing pass draws both directed partials of each visited edge
// from the CLV cache: the "rest of tree" vector at (p seen from u) is
// just the directed partial in the opposite direction, so no separate
// rest-buffer machinery is needed and untouched regions of the tree cost
// nothing to revisit.

// OptOptions control branch length optimization.
type OptOptions struct {
	// Passes is the maximum number of full smoothing passes over the
	// selected branches (fastDNAml's smoothings). Default 8.
	Passes int
	// Tol stops the pass loop when a full pass improves the total
	// log-likelihood by less than this. Default 1e-5.
	Tol float64
	// Around restricts optimization to branches within Radius vertices
	// of this node (nil optimizes every branch). This mirrors
	// fastDNAml's insertion-time behaviour of optimizing only the
	// branches near the new taxon before the full smoothing of the
	// round's best tree.
	Around *tree.Node
	// Centers optionally lists several centers; the optimized region is
	// the union of the Radius-neighborhoods of all of them (and of
	// Around when also set). Rearrangement scoring uses this to smooth
	// both the regraft junction and the prune site.
	Centers []*tree.Node
	// Radius is the vertex distance bound used with Around/Centers; 1
	// selects only the incident branches. Default 1.
	Radius int
	// Mode selects the smoothing algorithm: SmoothSweep (default) is
	// the sequential per-edge Newton sweep; SmoothGradient runs
	// simultaneous smoothing on the linear-time all-branches gradient
	// with a safeguarded fallback to the sweep (gradient.go). Engines
	// without the GradientSmoother capability, and restricted
	// (Around/Centers) optimizations, always sweep.
	Mode SmoothMode
}

func (o OptOptions) withDefaults() OptOptions {
	if o.Passes <= 0 {
		o.Passes = 8
	}
	if o.Tol <= 0 {
		o.Tol = 1e-5
	}
	if o.Radius <= 0 {
		o.Radius = 1
	}
	return o
}

// OptimizeBranches optimizes branch lengths in place and returns the final
// log-likelihood. With Around/Centers set, only nearby branches are
// optimized but the returned value is still the full-tree log-likelihood.
func (e *CachedEngine) OptimizeBranches(t *tree.Tree, opt OptOptions) (float64, error) {
	defer e.endEval(e.beginEval())
	opt = opt.withDefaults()
	if err := e.checkTree(t); err != nil {
		return 0, err
	}
	e.ensureBuffers(t.MaxID())

	var allowed map[[2]int]bool
	if opt.Around != nil || len(opt.Centers) > 0 {
		allowed = make(map[[2]int]bool)
		if opt.Around != nil {
			edgeSetAround(opt.Around, opt.Radius, allowed)
		}
		for _, c := range opt.Centers {
			if c != nil {
				edgeSetAround(c, opt.Radius, allowed)
			}
		}
	}

	anchor := smoothAnchor(t)
	if opt.Mode == SmoothGradient && allowed == nil {
		return e.optimizeBranchesGradient(t, opt, anchor)
	}
	return e.optimizeBranchesSweep(t, opt, anchor, allowed)
}

// optimizeBranchesSweep is the sequential smoothing loop: full
// depth-first Newton sweeps until a pass improves the log-likelihood by
// less than Tol or the pass budget runs out.
func (e *CachedEngine) optimizeBranchesSweep(t *tree.Tree, opt OptOptions, anchor *tree.Node, allowed map[[2]int]bool) (float64, error) {
	prev := math.Inf(-1)
	last := prev
	for pass := 0; pass < opt.Passes; pass++ {
		e.smoothPass(anchor, allowed)
		e.stats.SmoothPasses++
		lnL, err := e.LogLikelihood(t)
		if err != nil {
			return 0, err
		}
		last = lnL
		if lnL-prev < opt.Tol {
			break
		}
		prev = lnL
	}
	return last, nil
}

// edgeSetAround adds the undirected edges within radius vertices of n to
// out.
func edgeSetAround(n *tree.Node, radius int, out map[[2]int]bool) {
	type item struct {
		node *tree.Node
		dist int
	}
	visited := map[int]bool{n.ID: true}
	queue := []item{{n, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.dist >= radius {
			continue
		}
		for _, m := range cur.node.Nbr {
			out[edgeKey(cur.node, m)] = true
			if !visited[m.ID] {
				visited[m.ID] = true
				queue = append(queue, item{m, cur.dist + 1})
			}
		}
	}
}

func edgeKey(a, b *tree.Node) [2]int {
	if a.ID < b.ID {
		return [2]int{a.ID, b.ID}
	}
	return [2]int{b.ID, a.ID}
}

// smoothPass performs one depth-first smoothing pass from anchor,
// visiting each edge once. Both directed partials come from the CLV
// cache, so each visit recomputes only the vectors the previous Newton
// updates invalidated — on a locally-edited tree, almost nothing.
// Children are visited in node-ID order (Nbr order is not stable across
// topology edits) so the sequence of Newton updates — and therefore the
// exact optimized lengths — is independent of the tree's edit history.
func (e *CachedEngine) smoothPass(anchor *tree.Node, allowed map[[2]int]bool) {
	var visit func(u, p *tree.Node)
	visit = func(u, p *tree.Node) {
		if allowed == nil || allowed[edgeKey(p, u)] {
			a, _ := e.partial(p, u) // rest of tree seen from u
			b, _ := e.partial(u, p) // subtree at u
			z0 := u.LenTo(p)
			z := e.newtonEdge(a, b, z0)
			tree.SetLen(p, u, z) // no-op (and no invalidation) when z == z0
		}
		for _, c := range childrenByID(u, p) {
			visit(c, u)
		}
	}
	for _, child := range childrenByID(anchor, nil) {
		visit(child, anchor)
	}
}

// childrenByID returns u's neighbors other than p, sorted by node ID.
func childrenByID(u, p *tree.Node) []*tree.Node {
	out := make([]*tree.Node, 0, len(u.Nbr))
	for _, c := range u.Nbr {
		if c != p {
			out = append(out, c)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// edgeObjective is one edge's log-likelihood as a function of its branch
// length, as newtonDrive sees it. Each engine implements it over
// the edge it is currently optimizing.
type edgeObjective interface {
	// newtonDerivs returns the first and second derivatives of the edge
	// log-likelihood at z.
	newtonDerivs(z float64) (d1, d2 float64)
	// newtonGain returns lnL(z) − lnL(z0), the change in the edge
	// log-likelihood from moving its length from z0 to z.
	newtonGain(z0, z float64) float64
}

// newtonDrive maximizes an edge log-likelihood over the branch length,
// starting from z0, and returns the chosen length. It is the
// accept/reject policy every in-tree engine shares, kept pure like
// newtonStep so backends choose identically from identical values.
//
// The guard is log-light: the iterates themselves need only d1 and d2.
// When the first iterate stops, the start is returned and no
// log-likelihood is evaluated (z0 is the only length evaluated, so there
// is nothing to reject). Otherwise the log-likelihood is compared at z0
// and at the last evaluated iterate only, in one pass, and the better
// length wins, z0 on a tie — so the result is never worse than the start.
func newtonDrive(f edgeObjective, z0 float64) float64 {
	start := clampLen(z0)
	z := start
	for iter := 1; ; iter++ {
		d1, d2 := f.newtonDerivs(z)
		next, stop := newtonStep(z, d1, d2)
		if stop || iter == newtonMaxIter {
			break
		}
		z = next
	}
	if z == start || !(f.newtonGain(start, z) > 0) {
		return start
	}
	return z
}

// newtonEdge optimizes the branch length of edge (a, b) from z0: one
// sumtable build, then the shared newtonDrive policy over it.
func (e *CachedEngine) newtonEdge(a, b clvRef, z0 float64) float64 {
	e.buildSumtable(a, b)
	return newtonDrive(e, z0)
}

// newtonStep computes the next Newton iterate for a branch length from
// the current iterate and the first/second derivatives of the edge
// log-likelihood, reporting stop=true when iteration should end (an
// unusable step or convergence within newtonTol). It is a pure function
// shared by every in-tree engine so backends walk bit-identical iterate
// sequences from identical derivatives.
func newtonStep(z, d1, d2 float64) (float64, bool) {
	var next float64
	if d2 < 0 {
		next = z - d1/d2
	} else {
		// Not locally concave: move geometrically in the gradient
		// direction (the likelihood is convex in z when the optimum
		// sits at a bound, e.g. identical sequences).
		if d1 > 0 {
			next = z * 8
		} else {
			next = z / 8
		}
	}
	if math.IsNaN(next) || math.IsInf(next, 0) {
		return z, true
	}
	next = clampLen(next)
	// Dampen huge Newton jumps (fastDNAml limits the step as well).
	if next > 8*z {
		next = 8 * z
	}
	if next < z/8 {
		next = z / 8
	}
	next = clampLen(next)
	if math.Abs(next-z) < newtonTol*(z+newtonTol) {
		return next, true
	}
	return next, false
}

// initSumtable folds the equilibrium frequencies into the model's eigen
// coefficient matrices, stG[k][i][j] = π_i·C_k[i][j], after checking the
// two identities the sumtable build relies on (kernels.go): C_0 is the
// stationary projector (C_0[i][j] = π_j) and Σ_k C_k = I.
func (e *CachedEngine) initSumtable() error {
	d := e.decomp
	if len(d.Lambda) < 2 || len(d.Lambda) > len(e.stG) || len(d.Coef) != len(d.Lambda) || d.Lambda[0] != 0 {
		return fmt.Errorf("likelihood: model %s: decomposition has %d terms, want 2..%d with λ_0 = 0",
			e.mdl.Name(), len(d.Lambda), len(e.stG))
	}
	const tol = 1e-9
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sum := 0.0
			for k := range d.Coef {
				sum += d.Coef[k][i][j]
			}
			id := 0.0
			if i == j {
				id = 1
			}
			if math.Abs(d.Coef[0][i][j]-e.freqs[j]) > tol || math.Abs(sum-id) > tol {
				return fmt.Errorf("likelihood: model %s: decomposition is not a reversible stationary expansion", e.mdl.Name())
			}
		}
	}
	e.stK = len(d.Lambda)
	for k := range d.Coef {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				e.stG[k][i][j] = e.freqs[i] * d.Coef[k][i][j]
			}
		}
	}
	return nil
}

// buildSumtable fills the sumtable of edge (a, b): the K eigen-projected
// products of its two directed partials per pattern. Built once per edge
// visit, it makes every later derivative or log-likelihood evaluation at
// any length O(patterns·K). The op count charges 16 per eigen term, the
// cost of a direct quadratic form.
func (e *CachedEngine) buildSumtable(a, b clvRef) {
	e.ops += uint64(e.npat) * 16 * uint64(e.stK)
	freqs := (*[4]float64)(&e.freqs)
	mid := e.stG[1 : e.stK-1]
	for _, blk := range e.blocks {
		segSumBuild(e.sumtab, a.v, b.v, freqs, mid, e.npad, blk.plo, blk.hi-blk.lo)
	}
}

// fillSumCoef computes every rate class's sumtable weights at length z.
func (e *CachedEngine) fillSumCoef(dst []sumCoef, z float64) {
	lam := e.decomp.Lambda
	for ci, r := range e.classRates {
		c := &dst[ci]
		for k := 1; k < e.stK; k++ {
			l1 := lam[k] * r
			x := math.Exp(l1 * z)
			c[0][k] = x
			c[1][k] = l1 * x
			c[2][k] = l1 * l1 * x
		}
	}
}

// newtonDerivs implements edgeObjective over the current sumtable: the
// first and second derivatives of the edge log-likelihood at z, one
// derivative-only kernel pass with a shard-ordered reduction. It counts
// as one Newton iteration.
func (e *CachedEngine) newtonDerivs(z float64) (float64, float64) {
	e.fillSumCoef(e.stCoef, clampLen(z))
	e.ops += uint64(e.npat) * 3 * uint64(e.stK)
	e.stats.NewtonIters++
	d1, d2 := 0.0, 0.0
	for _, sh := range e.shards {
		var acc derivAcc
		for _, seg := range sh.segs {
			acc = segSumDeriv(e.sumtab, e.weights, &e.stCoef[seg.ci], seg.plo, seg.hi-seg.lo, acc)
		}
		d1 += acc.d1
		d2 += acc.d2
	}
	return d1, d2
}

// newtonGain implements edgeObjective over the current sumtable: the
// edge log-likelihood change from z0 to z, one per-pattern log pass.
func (e *CachedEngine) newtonGain(z0, z float64) float64 {
	e.fillSumCoef(e.stCoef0, clampLen(z0))
	e.fillSumCoef(e.stCoef, clampLen(z))
	e.ops += uint64(e.npat) * 2 * uint64(e.stK)
	total := 0.0
	for _, sh := range e.shards {
		part := 0.0
		for _, seg := range sh.segs {
			part = segSumGain(e.sumtab, e.weights, &e.stCoef[seg.ci], &e.stCoef0[seg.ci], seg.plo, seg.hi-seg.lo, part)
		}
		total += part
	}
	return total
}

// OptimizeEdge optimizes a single edge's branch length in place and
// returns the resulting full-tree log-likelihood. Exposed for tests and
// fine-grained use.
func (e *CachedEngine) OptimizeEdge(t *tree.Tree, ed tree.Edge) (float64, error) {
	defer e.endEval(e.beginEval())
	if err := e.checkTree(t); err != nil {
		return 0, err
	}
	if ed.A.NbrIndex(ed.B) < 0 {
		return 0, fmt.Errorf("likelihood: edge %d-%d: %w", ed.A.ID, ed.B.ID, ErrEdgeNotFound)
	}
	e.ensureBuffers(t.MaxID())
	a, _ := e.partial(ed.A, ed.B)
	b, _ := e.partial(ed.B, ed.A)
	z := e.newtonEdge(a, b, ed.Length())
	tree.SetLen(ed.A, ed.B, z)
	return e.edgeLogLikelihood(a, b, z), nil
}
