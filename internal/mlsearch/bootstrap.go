package mlsearch

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
)

// Worker bootstrap for distributed (TCP) runs. MPI programs typically
// broadcast the sequence data to every rank at startup; here the master
// hands the router a welcome payload — the layout's role ranks plus a
// DataBundle carrying the alignment and model settings — and the
// transport delivers it inside the join handshake, so a worker is fully
// provisioned in one round trip. This is what lets the paper's
// geographically distributed PVM workers and the planned
// Condor/screensaver workers (§2.2, §5) run with nothing but a socket to
// the master.

// DataBundle is everything a worker needs to evaluate tasks.
type DataBundle struct {
	// PhylipText is the alignment in interleaved PHYLIP form.
	PhylipText []byte
	// TTRatio is the F84 transition/transversion ratio.
	TTRatio float64
	// SiteRates are optional per-site rates (empty = homogeneous).
	SiteRates []float64
	// Weights are optional per-site weights (empty = uniform).
	Weights []float64
	// Engine names the likelihood backend workers should build (see
	// likelihood.Engines; empty = likelihood.DefaultEngine). A worker
	// started with an explicit -engine flag overrides it locally.
	Engine string
	// SmoothMode is the full-smoothing algorithm workers should apply
	// (zero value = the sequential sweep; see Config.SmoothMode). A
	// worker started with an explicit -smooth-mode flag overrides it
	// locally.
	SmoothMode likelihood.SmoothMode
}

// Extension tags of the DataBundle envelope.
const (
	extBundleEngine byte = 1 + iota
	extBundleSmoothMode
)

// ErrBundlePrecision rejects a data bundle whose CLV precision slot is
// not 0. The 4-byte slot after the weights once selected float32
// storage; writers now always put 0 there, and engines store float64
// only, so a bundle from a master that asks for anything else cannot be
// honored.
var ErrBundlePrecision = errors.New("mlsearch: data bundle requests a CLV precision other than float64")

const (
	bootData    byte = 0x44 // 'D'
	bootWelcome byte = 0x57 // 'W'
)

// MarshalDataBundle encodes a bundle.
func MarshalDataBundle(b DataBundle) []byte {
	var w wireWriter
	w.buf = append(w.buf, bootData)
	w.str(string(b.PhylipText))
	w.f64(b.TTRatio)
	w.i32(int32(len(b.SiteRates)))
	for _, r := range b.SiteRates {
		w.f64(r)
	}
	w.i32(int32(len(b.Weights)))
	for _, x := range b.Weights {
		w.f64(x)
	}
	w.i32(0) // CLV precision slot: always 0, float64
	if b.Engine != "" {
		w.ext(extBundleEngine, []byte(b.Engine))
	}
	if b.SmoothMode != likelihood.SmoothSweep {
		w.ext(extBundleSmoothMode, []byte(b.SmoothMode.String()))
	}
	return w.buf
}

// UnmarshalDataBundle decodes a bundle. Decoding is strict, unlike the
// Task and Result envelopes: the bundle decides how every result is
// computed, so a field this worker does not understand (an unknown
// extension tag, a smoothing mode it cannot parse, a nonzero precision
// slot) is an error rather than something to skip, and extensions must
// appear once each in tag order, in their canonical form. Every bundle
// that decodes therefore re-encodes to the same bytes.
func UnmarshalDataBundle(data []byte) (DataBundle, error) {
	if len(data) == 0 || data[0] != bootData {
		return DataBundle{}, fmt.Errorf("mlsearch: not a data bundle")
	}
	r := wireReader{buf: data[1:]}
	b := DataBundle{
		PhylipText: []byte(r.str("bundle alignment")),
		TTRatio:    r.f64("bundle ratio"),
	}
	b.SiteRates = r.f64s("bundle rate")
	b.Weights = r.f64s("bundle weight")
	if prec := r.i32("bundle precision"); r.err == nil && prec != 0 {
		return DataBundle{}, fmt.Errorf("%w (slot value %d)", ErrBundlePrecision, prec)
	}
	var bad error
	last := byte(0)
	if err := r.extFields("bundle extension", func(tag byte, payload []byte) {
		if bad != nil {
			return
		}
		if tag <= last {
			bad = fmt.Errorf("mlsearch: data bundle extension %d out of order or repeated", tag)
			return
		}
		last = tag
		switch tag {
		case extBundleEngine:
			if len(payload) == 0 {
				bad = fmt.Errorf("mlsearch: data bundle names an empty engine")
			}
			b.Engine = string(payload)
		case extBundleSmoothMode:
			m, err := likelihood.ParseSmoothMode(string(payload))
			if err != nil || m == likelihood.SmoothSweep || m.String() != string(payload) {
				bad = fmt.Errorf("mlsearch: data bundle smooth mode %q is not canonical", payload)
			}
			b.SmoothMode = m
		default:
			bad = fmt.Errorf("mlsearch: data bundle has unknown extension %d", tag)
		}
	}); err != nil {
		return DataBundle{}, err
	}
	if bad != nil {
		return DataBundle{}, bad
	}
	return b, r.done("data bundle")
}

// f64s reads a count-prefixed float64 list; a negative count is an
// error, and an empty list reads as nil.
func (r *wireReader) f64s(what string) []float64 {
	n := r.i32(what + " count")
	if r.err == nil && n < 0 {
		r.err = fmt.Errorf("mlsearch: negative %s count %d", what, n)
	}
	var out []float64
	for i := int32(0); i < n && r.err == nil; i++ {
		out = append(out, r.f64(what))
	}
	return out
}

// Build materializes the bundle into the worker-side dataset.
func (b DataBundle) Build() (model.Model, *seq.Patterns, []string, error) {
	a, err := seq.ReadPhylip(bytes.NewReader(b.PhylipText))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("mlsearch: bundle alignment: %w", err)
	}
	var rates, weights []float64
	if len(b.SiteRates) > 0 {
		rates = b.SiteRates
	}
	if len(b.Weights) > 0 {
		weights = b.Weights
	}
	pat, err := seq.Compress(a, seq.CompressOptions{Rates: rates, Weights: weights})
	if err != nil {
		return nil, nil, nil, err
	}
	ttr := b.TTRatio
	if ttr <= 0 {
		ttr = model.DefaultTTRatio
	}
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(pat), ttr)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, pat, a.Names, nil
}

// marshalWelcome encodes the payload the router hands each joining
// worker: the layout's role ranks plus the data bundle.
func marshalWelcome(lay Layout, bundle DataBundle) []byte {
	var w wireWriter
	w.buf = append(w.buf, bootWelcome)
	w.i32(int32(lay.Master))
	w.i32(int32(lay.Foreman))
	w.i32(int32(lay.Monitor))
	inner := MarshalDataBundle(bundle)
	w.i32(int32(len(inner)))
	w.buf = append(w.buf, inner...)
	return w.buf
}

// unmarshalWelcome decodes a welcome payload into the layout the worker
// should use and its data bundle.
func unmarshalWelcome(data []byte) (Layout, DataBundle, error) {
	if len(data) == 0 || data[0] != bootWelcome {
		return Layout{}, DataBundle{}, fmt.Errorf("mlsearch: not a welcome payload")
	}
	r := wireReader{buf: data[1:]}
	lay := Layout{
		Master:  int(r.i32("welcome master")),
		Foreman: int(r.i32("welcome foreman")),
		Monitor: int(r.i32("welcome monitor")),
		Elastic: true,
	}
	ln := r.i32("welcome bundle length")
	if r.err == nil && (ln < 0 || r.off+int(ln) > len(r.buf)) {
		r.fail("welcome bundle body")
	}
	if r.err != nil {
		return Layout{}, DataBundle{}, r.done("welcome")
	}
	bundle, err := UnmarshalDataBundle(r.buf[r.off : r.off+int(ln)])
	if err != nil {
		return Layout{}, DataBundle{}, err
	}
	r.off += int(ln)
	return lay, bundle, r.done("welcome")
}
