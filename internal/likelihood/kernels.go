package likelihood

import (
	"math"

	"repro/internal/model"
)

// Pattern-loop kernels over the structure-of-arrays CLV layout.
//
// A CLV buffer holds four contiguous lanes of npad entries each — one
// lane per nucleotide state — so the per-site 4-state update is a
// straight-line loop over parallel arrays instead of a strided walk over
// interleaved [pattern*4+state] records. Each kernel body follows the
// same discipline:
//
//   - lanes are re-sliced to the exact segment length at the loop head,
//     so the compiler proves every index in bounds once and the loop
//     runs bounds-check-free (verified with -d=ssa/check_bce);
//   - the 16 transition-matrix coefficients are hoisted into locals
//     before the loop (gc performs no loop-invariant code motion, and
//     stores to the destination lanes would otherwise force a reload of
//     every coefficient on every pattern);
//   - the arithmetic per pattern is the exact expression the previous
//     interleaved kernels evaluated, in the same order, so float64
//     results are bit-identical to the pre-SoA engine.
//
// Every log-likelihood and derivative reduction accumulates with one
// accumulator threaded through a shard's segments (shard.go), so the
// summation grouping is fixed by the data alone.

// lanes returns the four state lanes of a SoA CLV buffer restricted to
// the padded range [lo, lo+n).
func lanes(clv []float64, npad, lo, n int) (l0, l1, l2, l3 []float64) {
	l0 = clv[lo : lo+n]
	l1 = clv[npad+lo : npad+lo+n]
	l2 = clv[2*npad+lo : 2*npad+lo+n]
	l3 = clv[3*npad+lo : 3*npad+lo+n]
	return
}

// segCombineFirst assigns dst = P·src over the padded range [lo, lo+n):
// the first child-edge combine of a Felsenstein pruning step.
func segCombineFirst(dst, src []float64, m *[4][4]float64, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		d0[i] = m00*c0 + m01*c1 + m02*c2 + m03*c3
		d1[i] = m10*c0 + m11*c1 + m12*c2 + m13*c3
		d2[i] = m20*c0 + m21*c1 + m22*c2 + m23*c3
		d3[i] = m30*c0 + m31*c1 + m32*c2 + m33*c3
	}
}

// segCombineMul multiplies dst *= P·src over the padded range
// [lo, lo+n): subsequent child-edge combines.
func segCombineMul(dst, src []float64, m *[4][4]float64, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		d0[i] *= m00*c0 + m01*c1 + m02*c2 + m03*c3
		d1[i] *= m10*c0 + m11*c1 + m12*c2 + m13*c3
		d2[i] *= m20*c0 + m21*c1 + m22*c2 + m23*c3
		d3[i] *= m30*c0 + m31*c1 + m32*c2 + m33*c3
	}
}

// segCombineFirstResc is segCombineFirst fused with rescaling and scale
// propagation: the final values are rescaled in registers before the
// single store, eliminating the separate read-modify-write rescale pass.
// The products are the same floating-point operations the unfused
// combine-then-rescale sequence performs, so results are bit-identical.
func segCombineFirstResc(dst, src []float64, m *[4][4]float64, dsc, ssc []int32, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	sd := dsc[lo : lo+n]
	sd = sd[:len(d0)]
	ss := ssc[lo : lo+n]
	ss = ss[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		v0 := m00*c0 + m01*c1 + m02*c2 + m03*c3
		v1 := m10*c0 + m11*c1 + m12*c2 + m13*c3
		v2 := m20*c0 + m21*c1 + m22*c2 + m23*c3
		v3 := m30*c0 + m31*c1 + m32*c2 + m33*c3
		sc := ss[i]
		mx := v0
		if v1 > mx {
			mx = v1
		}
		if v2 > mx {
			mx = v2
		}
		if v3 > mx {
			mx = v3
		}
		if mx < scaleThreshold && mx > 0 {
			v0 *= scaleFactor
			v1 *= scaleFactor
			v2 *= scaleFactor
			v3 *= scaleFactor
			sc++
		}
		d0[i], d1[i], d2[i], d3[i] = v0, v1, v2, v3
		sd[i] = sc
	}
}

// segCombineMulResc is segCombineMul fused with rescaling and scale
// accumulation, used for the last child combine of a pruning step.
func segCombineMulResc(dst, src []float64, m *[4][4]float64, dsc, ssc []int32, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	sd := dsc[lo : lo+n]
	sd = sd[:len(d0)]
	ss := ssc[lo : lo+n]
	ss = ss[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		v0 := d0[i] * (m00*c0 + m01*c1 + m02*c2 + m03*c3)
		v1 := d1[i] * (m10*c0 + m11*c1 + m12*c2 + m13*c3)
		v2 := d2[i] * (m20*c0 + m21*c1 + m22*c2 + m23*c3)
		v3 := d3[i] * (m30*c0 + m31*c1 + m32*c2 + m33*c3)
		sc := sd[i] + ss[i]
		mx := v0
		if v1 > mx {
			mx = v1
		}
		if v2 > mx {
			mx = v2
		}
		if v3 > mx {
			mx = v3
		}
		if mx < scaleThreshold && mx > 0 {
			v0 *= scaleFactor
			v1 *= scaleFactor
			v2 *= scaleFactor
			v3 *= scaleFactor
			sc++
		}
		d0[i], d1[i], d2[i], d3[i] = v0, v1, v2, v3
		sd[i] = sc
	}
}

// segCombine2 performs a complete binary pruning step in one pass:
// dst = (Ma·a) ⊙ (Mb·b), with underflow rescaling and scale-count
// accumulation fused in. Inner nodes of a bifurcating tree have exactly
// two children, so this kernel computes their CLV without ever storing
// (or re-loading) the intermediate first-child product — the values
// stay in registers between the two matrix applications. The products
// are the same floating-point operations the first/mul kernel pair
// performs, so results are bit-identical.
func segCombine2(dst, a, b []float64, ma, mb *[4][4]float64, dsc, asc, bsc []int32, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	a0, a1, a2, a3 := lanes(a, npad, lo, n)
	b0, b1, b2, b3 := lanes(b, npad, lo, n)
	p00, p01, p02, p03 := ma[0][0], ma[0][1], ma[0][2], ma[0][3]
	p10, p11, p12, p13 := ma[1][0], ma[1][1], ma[1][2], ma[1][3]
	p20, p21, p22, p23 := ma[2][0], ma[2][1], ma[2][2], ma[2][3]
	p30, p31, p32, p33 := ma[3][0], ma[3][1], ma[3][2], ma[3][3]
	q00, q01, q02, q03 := mb[0][0], mb[0][1], mb[0][2], mb[0][3]
	q10, q11, q12, q13 := mb[1][0], mb[1][1], mb[1][2], mb[1][3]
	q20, q21, q22, q23 := mb[2][0], mb[2][1], mb[2][2], mb[2][3]
	q30, q31, q32, q33 := mb[3][0], mb[3][1], mb[3][2], mb[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	a0, a1, a2, a3 = a0[:len(d0)], a1[:len(d0)], a2[:len(d0)], a3[:len(d0)]
	b0, b1, b2, b3 = b0[:len(d0)], b1[:len(d0)], b2[:len(d0)], b3[:len(d0)]
	sd := dsc[lo : lo+n]
	sd = sd[:len(d0)]
	sa := asc[lo : lo+n]
	sa = sa[:len(d0)]
	sb := bsc[lo : lo+n]
	sb = sb[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := a0[i], a1[i], a2[i], a3[i]
		e0, e1, e2, e3 := b0[i], b1[i], b2[i], b3[i]
		v0 := (p00*c0 + p01*c1 + p02*c2 + p03*c3) * (q00*e0 + q01*e1 + q02*e2 + q03*e3)
		v1 := (p10*c0 + p11*c1 + p12*c2 + p13*c3) * (q10*e0 + q11*e1 + q12*e2 + q13*e3)
		v2 := (p20*c0 + p21*c1 + p22*c2 + p23*c3) * (q20*e0 + q21*e1 + q22*e2 + q23*e3)
		v3 := (p30*c0 + p31*c1 + p32*c2 + p33*c3) * (q30*e0 + q31*e1 + q32*e2 + q33*e3)
		sc := sa[i] + sb[i]
		mx := v0
		if v1 > mx {
			mx = v1
		}
		if v2 > mx {
			mx = v2
		}
		if v3 > mx {
			mx = v3
		}
		if mx < scaleThreshold && mx > 0 {
			v0 *= scaleFactor
			v1 *= scaleFactor
			v2 *= scaleFactor
			v3 *= scaleFactor
			sc++
		}
		d0[i], d1[i], d2[i], d3[i] = v0, v1, v2, v3
		sd[i] = sc
	}
}

// segEdgeLnL accumulates the weighted root log-likelihood over
// [lo, lo+n) into acc and returns it. The accumulator threads through
// the caller's segment loop so the summation order over a shard is one
// unbroken pattern sequence, exactly as the interleaved kernel summed.
func segEdgeLnL(aclv, bclv []float64, asc, bsc []int32, w []float64,
	pm *model.PMatrix, f *[4]float64, npad, lo, n int, acc float64) float64 {
	a0, a1, a2, a3 := lanes(aclv, npad, lo, n)
	b0l, b1l, b2l, b3l := lanes(bclv, npad, lo, n)
	m00, m01, m02, m03 := pm[0][0], pm[0][1], pm[0][2], pm[0][3]
	m10, m11, m12, m13 := pm[1][0], pm[1][1], pm[1][2], pm[1][3]
	m20, m21, m22, m23 := pm[2][0], pm[2][1], pm[2][2], pm[2][3]
	m30, m31, m32, m33 := pm[3][0], pm[3][1], pm[3][2], pm[3][3]
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	b0l, b1l, b2l, b3l = b0l[:len(a0)], b1l[:len(a0)], b2l[:len(a0)], b3l[:len(a0)]
	wv := w[lo : lo+n]
	wv = wv[:len(a0)]
	sa := asc[lo : lo+n]
	sa = sa[:len(a0)]
	sb := bsc[lo : lo+n]
	sb = sb[:len(a0)]
	for i := range a0 {
		b0, b1, b2, b3 := b0l[i], b1l[i], b2l[i], b3l[i]
		lkl := 0.0
		lkl += f0 * a0[i] * (m00*b0 + m01*b1 + m02*b2 + m03*b3)
		lkl += f1 * a1[i] * (m10*b0 + m11*b1 + m12*b2 + m13*b3)
		lkl += f2 * a2[i] * (m20*b0 + m21*b1 + m22*b2 + m23*b3)
		lkl += f3 * a3[i] * (m30*b0 + m31*b1 + m32*b2 + m33*b3)
		if lkl <= 0 {
			lkl = math.SmallestNonzeroFloat64
		}
		acc += wv[i] * (math.Log(lkl) - float64(sa[i]+sb[i])*logScale)
	}
	return acc
}

// Newton sumtable kernels. For one edge the per-pattern likelihood is
// l_p(z) = Σ_ij π_i a_i P_ij(z) b_j, and the spectral expansion
// P(z) = Σ_k C_k·exp(λ_k r z) splits it into K eigen-projected products
// s_k[p] = Σ_ij a_i G_k[i][j] b_j (G_k = diag(π)·C_k) that do not depend
// on z. segSumBuild fills them once per edge; every Newton iterate then
// costs a few multiply-adds per pattern for each of l, l′ and l″.
//
// Two identities of every reversible model cut the build: the λ_0 = 0
// term is the stationary projector, C_0[i][j] = π_j, so
// s_0 = (Σ_i π_i a_i)(Σ_j π_j b_j) is a product of two dot products; and
// P(0) = Σ_k C_k = I, so the last term is the remainder
// s_{K-1} = Σ_i π_i a_i b_i − Σ_{k<K-1} s_k. Only the K−2 middle terms
// need the full quadratic form (none for JC69, one for F84, two for
// HKY85 and GTR). initSumtable checks both identities on the model.
//
// A sumtable row is four float64s whatever K is: lane k holds s_k, lanes
// at and above K stay zero and contribute exact zeros. exp(λ_0 r z) is
// exactly 1, so lane 0 is added unweighted and never enters l′ or l″.

// segSumBuild fills the sumtable rows of the padded range [lo, lo+n);
// mid holds G_k for the middle terms k = 1..K-2.
func segSumBuild(st [][4]float64, aclv, bclv []float64, f *[4]float64,
	mid []model.PMatrix, npad, lo, n int) {
	a0, a1, a2, a3 := lanes(aclv, npad, lo, n)
	b0l, b1l, b2l, b3l := lanes(bclv, npad, lo, n)
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	b0l, b1l, b2l, b3l = b0l[:len(a0)], b1l[:len(a0)], b2l[:len(a0)], b3l[:len(a0)]
	sv := st[lo : lo+n]
	sv = sv[:len(a0)]
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	mid = mid[:min(len(mid), 2)] // K ≤ 4; the cap also drops the bounds check on row[k+1]
	last := len(mid) + 1
	for i := range a0 {
		x0, x1, x2, x3 := a0[i], a1[i], a2[i], a3[i]
		y0, y1, y2, y3 := b0l[i], b1l[i], b2l[i], b3l[i]
		fa0, fa1, fa2, fa3 := f0*x0, f1*x1, f2*x2, f3*x3
		s0 := (fa0 + fa1 + fa2 + fa3) * (f0*y0 + f1*y1 + f2*y2 + f3*y3)
		rem := fa0*y0 + fa1*y1 + fa2*y2 + fa3*y3 - s0
		row := &sv[i]
		row[0] = s0
		for k := range mid {
			c := &mid[k]
			v := x0*(c[0][0]*y0+c[0][1]*y1+c[0][2]*y2+c[0][3]*y3) +
				x1*(c[1][0]*y0+c[1][1]*y1+c[1][2]*y2+c[1][3]*y3) +
				x2*(c[2][0]*y0+c[2][1]*y1+c[2][2]*y2+c[2][3]*y3) +
				x3*(c[3][0]*y0+c[3][1]*y1+c[3][2]*y2+c[3][3]*y3)
			row[k+1] = v
			rem -= v
		}
		row[last] = rem
	}
}

// sumCoef holds one rate class's sumtable weights at a branch length:
// row 0 is exp(λ_k r z), rows 1 and 2 its first and second z-derivatives
// (λ_k r)·exp(λ_k r z) and (λ_k r)²·exp(λ_k r z). Column 0 (λ_0 = 0) is
// never read, and columns at and above K stay zero.
type sumCoef [3][4]float64

// derivAcc carries the two Newton derivative accumulators through a
// shard's segment loop.
type derivAcc struct {
	d1, d2 float64
}

// segSumDeriv accumulates the weighted first and second derivatives of
// the edge log-likelihood over the sumtable rows [lo, lo+n). Scale
// counts cancel in the l′/l and l″/l ratios, so no scale vector and no
// transcendental is touched.
func segSumDeriv(st [][4]float64, w []float64, c *sumCoef, lo, n int, acc derivAcc) derivAcc {
	sv := st[lo : lo+n]
	wv := w[lo : lo+n]
	wv = wv[:len(sv)]
	e1, e2, e3 := c[0][1], c[0][2], c[0][3]
	f1, f2, f3 := c[1][1], c[1][2], c[1][3]
	g1, g2, g3 := c[2][1], c[2][2], c[2][3]
	for i := range sv {
		s := &sv[i]
		l := s[0] + s[1]*e1 + s[2]*e2 + s[3]*e3
		if l <= 0 {
			l = math.SmallestNonzeroFloat64
		}
		inv := 1 / l
		r := (s[1]*f1 + s[2]*f2 + s[3]*f3) * inv
		acc.d1 += wv[i] * r
		acc.d2 += wv[i] * ((s[1]*g1+s[2]*g2+s[3]*g3)*inv - r*r)
	}
	return acc
}

// segSumGain accumulates Σ_p w_p·log(l_p(z)/l_p(z0)) over the sumtable
// rows [lo, lo+n), where c and c0 are the weights at z and z0: the
// log-likelihood change of moving the edge from z0 to z, one log per
// pattern for both lengths. Scale counts cancel in the ratio.
func segSumGain(st [][4]float64, w []float64, c, c0 *sumCoef, lo, n int, acc float64) float64 {
	sv := st[lo : lo+n]
	wv := w[lo : lo+n]
	wv = wv[:len(sv)]
	e1, e2, e3 := c[0][1], c[0][2], c[0][3]
	o1, o2, o3 := c0[0][1], c0[0][2], c0[0][3]
	for i := range sv {
		s := &sv[i]
		l := s[0] + s[1]*e1 + s[2]*e2 + s[3]*e3
		l0 := s[0] + s[1]*o1 + s[2]*o2 + s[3]*o3
		if l <= 0 {
			l = math.SmallestNonzeroFloat64
		}
		if l0 <= 0 {
			l0 = math.SmallestNonzeroFloat64
		}
		acc += wv[i] * math.Log(l/l0)
	}
	return acc
}

// segSiteLnL writes the per-pattern (unweighted) log-likelihoods over
// [lo, lo+n) into out at each pattern's original (pre-permutation)
// index, given by orig.
func segSiteLnL(aclv, bclv []float64, asc, bsc []int32, orig []int, out []float64,
	pm *model.PMatrix, f *[4]float64, npad, lo, n int) {
	a0, a1, a2, a3 := lanes(aclv, npad, lo, n)
	b0l, b1l, b2l, b3l := lanes(bclv, npad, lo, n)
	m00, m01, m02, m03 := pm[0][0], pm[0][1], pm[0][2], pm[0][3]
	m10, m11, m12, m13 := pm[1][0], pm[1][1], pm[1][2], pm[1][3]
	m20, m21, m22, m23 := pm[2][0], pm[2][1], pm[2][2], pm[2][3]
	m30, m31, m32, m33 := pm[3][0], pm[3][1], pm[3][2], pm[3][3]
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	b0l, b1l, b2l, b3l = b0l[:len(a0)], b1l[:len(a0)], b2l[:len(a0)], b3l[:len(a0)]
	og := orig[lo : lo+n]
	og = og[:len(a0)]
	sa := asc[lo : lo+n]
	sa = sa[:len(a0)]
	sb := bsc[lo : lo+n]
	sb = sb[:len(a0)]
	for i := range a0 {
		b0, b1, b2, b3 := b0l[i], b1l[i], b2l[i], b3l[i]
		lkl := 0.0
		lkl += f0 * a0[i] * (m00*b0 + m01*b1 + m02*b2 + m03*b3)
		lkl += f1 * a1[i] * (m10*b0 + m11*b1 + m12*b2 + m13*b3)
		lkl += f2 * a2[i] * (m20*b0 + m21*b1 + m22*b2 + m23*b3)
		lkl += f3 * a3[i] * (m30*b0 + m31*b1 + m32*b2 + m33*b3)
		if lkl <= 0 {
			lkl = math.SmallestNonzeroFloat64
		}
		out[og[i]] = math.Log(lkl) - float64(sa[i]+sb[i])*logScale
	}
}

// addScale adds src scale counts into dst over [lo, lo+n) (subsequent
// combines accumulate the children's scaling events).
func addScale(dst, src []int32, lo, n int) {
	d := dst[lo : lo+n]
	s := src[lo : lo+n]
	s = s[:len(d)]
	for i := range d {
		d[i] += s[i]
	}
}
