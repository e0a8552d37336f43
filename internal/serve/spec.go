// Package serve is the fastdnamld daemon's core: a persistent
// multi-tenant inference service over the shared in-process worker
// fleet. Clients POST alignments and search options as jobs; the server
// admits them under per-tenant quotas, schedules them weighted-fair
// across tenants, runs them on warm dataset-keyed worker pods, streams
// progress, checkpoints every job through the fastdnaml-manifest v1
// restart format (a daemon restart resumes every incomplete job), and
// memoizes finished results in a content-addressed store so duplicate
// submissions never touch the fleet.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/model"
	"repro/internal/seq"
)

// MaxJumbles bounds a single job's jumble count; larger analyses are
// submitted as several jobs.
const MaxJumbles = 1024

// JobOptions are the search parameters a client submits with an
// alignment. The zero value of every field selects the same default the
// fastdnaml CLI uses, so {"alignment": "..."} alone is a valid job.
type JobOptions struct {
	// Model selects the substitution model: F84 (default), JC69, K80,
	// HKY85, or GTR.
	Model string `json:"model,omitempty"`
	// TTRatio is the F84 transition/transversion ratio (default 2.0).
	TTRatio float64 `json:"ttratio,omitempty"`
	// Kappa is the K80/HKY85 transition rate multiplier (default 2.0).
	Kappa float64 `json:"kappa,omitempty"`
	// GTRRates are the six GTR exchangeabilities ac,ag,at,cg,ct,gt
	// (empty = all 1).
	GTRRates []float64 `json:"gtr_rates,omitempty"`
	// Jumbles is the number of random taxon orderings (default 1).
	Jumbles int `json:"jumbles,omitempty"`
	// Seed drives the orderings; even seeds are adjusted as in
	// fastDNAml.
	Seed int64 `json:"seed,omitempty"`
	// Extent is the local rearrangement extent (default 1).
	Extent int `json:"extent,omitempty"`
	// FinalExtent is the final pass extent (0 = same as Extent).
	FinalExtent int `json:"final_extent,omitempty"`
	// Adaptive enables the adaptive rearrangement extent.
	Adaptive bool `json:"adaptive,omitempty"`
	// Engine names the likelihood backend (default cached).
	Engine string `json:"engine,omitempty"`
	// SmoothMode selects the full-tree branch-smoothing algorithm:
	// sweep (default) or gradient.
	SmoothMode string `json:"smooth_mode,omitempty"`
}

// JobSpec is the POST /v1/jobs request body.
type JobSpec struct {
	// Tenant attributes the job for quotas, fair scheduling, and
	// metrics labels ("" maps to "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs within a tenant's queue: higher runs first.
	Priority int `json:"priority,omitempty"`
	// Alignment is the PHYLIP alignment text.
	Alignment string `json:"alignment"`
	// Options are the search parameters.
	Options JobOptions `json:"options"`
}

// preparedSpec is a validated, canonicalized job: the parsed alignment,
// the base search config (Seed/Jumble are set per jumble at run time),
// and the two content hashes the service schedules and memoizes by.
type preparedSpec struct {
	// Spec is the normalized spec: canonical alignment rendering and
	// every option defaulted, so equal jobs serialize identically.
	Spec  JobSpec
	Align *seq.Alignment
	Cfg   mlsearch.Config
	// ResultKey content-addresses the job's outcome. It covers
	// everything that determines the inferred trees — canonical
	// alignment, model, seed, jumbles, extents, precision, engine — and
	// deliberately excludes deployment knobs (workers, threads,
	// pipeline): results are bit-identical across those, so a re-run on
	// a differently sized fleet still hits the cache.
	ResultKey string
	// PodKey identifies the warm worker pod the job can run on. Worker
	// engines are dataset-bound (one alignment + model per fleet), so
	// the key covers the alignment, model, precision, and engine, but
	// not seeds or extents — jobs that differ only in search parameters
	// share a pod and its warm CLV caches.
	PodKey string
}

// canonicalModel maps the accepted model spellings to one canonical
// name, so "hky" and "HKY85" hash identically.
func canonicalModel(name string) (string, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "", "F84":
		return "F84", nil
	case "JC", "JC69":
		return "JC69", nil
	case "K80":
		return "K80", nil
	case "HKY", "HKY85":
		return "HKY85", nil
	case "GTR":
		return "GTR", nil
	}
	return "", fmt.Errorf("serve: unknown model %q (F84, JC69, K80, HKY85, GTR)", name)
}

// normalizeOptions fills every defaulted field with its canonical value
// and validates ranges, returning options that serialize identically
// for equal jobs.
func normalizeOptions(o JobOptions) (JobOptions, error) {
	m, err := canonicalModel(o.Model)
	if err != nil {
		return o, err
	}
	o.Model = m
	if o.TTRatio < 0 {
		return o, fmt.Errorf("serve: negative ttratio %g", o.TTRatio)
	}
	if o.TTRatio == 0 {
		o.TTRatio = model.DefaultTTRatio
	}
	if o.Kappa < 0 {
		return o, fmt.Errorf("serve: negative kappa %g", o.Kappa)
	}
	if o.Kappa == 0 {
		o.Kappa = 2.0
	}
	switch {
	case o.Model != "GTR":
		if len(o.GTRRates) != 0 {
			return o, fmt.Errorf("serve: gtr_rates given with model %s", o.Model)
		}
	case len(o.GTRRates) == 0:
		o.GTRRates = []float64{1, 1, 1, 1, 1, 1}
	case len(o.GTRRates) != 6:
		return o, fmt.Errorf("serve: gtr_rates needs 6 values, got %d", len(o.GTRRates))
	}
	if o.Jumbles < 0 || o.Jumbles > MaxJumbles {
		return o, fmt.Errorf("serve: jumbles %d outside [0, %d]", o.Jumbles, MaxJumbles)
	}
	if o.Jumbles == 0 {
		o.Jumbles = 1
	}
	o.Seed = mlsearch.NormalizeSeed(o.Seed)
	if o.Extent < 0 || o.FinalExtent < 0 {
		return o, fmt.Errorf("serve: negative rearrangement extent")
	}
	if o.Extent == 0 {
		o.Extent = 1
	}
	if o.FinalExtent == 0 {
		o.FinalExtent = o.Extent
	}
	eng, err := likelihood.ParseEngine(o.Engine)
	if err != nil {
		return o, err
	}
	o.Engine = eng
	smode, err := likelihood.ParseSmoothMode(o.SmoothMode)
	if err != nil {
		return o, err
	}
	o.SmoothMode = smode.String()
	return o, nil
}

// decodeJobSpec reads a POST /v1/jobs body. Unknown fields are errors
// that name the field, so a misspelled option, or one this daemon no
// longer has, fails the request instead of silently running the job
// with a default. Specs read back from disk decode leniently instead
// (JobStore.LoadSpec), so jobs persisted by an older build still
// resume.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// gtrRatesStruct converts the wire slice to the model's struct form.
func gtrRatesStruct(r []float64) model.GTRRates {
	if len(r) != 6 {
		return model.GTRRates{}
	}
	return model.GTRRates{AC: r[0], AG: r[1], AT: r[2], CG: r[3], CT: r[4], GT: r[5]}
}

// hashJSON is the service's content hash: SHA-256 over the stable JSON
// encoding of v (struct field order is fixed, so equal values produce
// equal digests).
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Only hashes plain structs of numbers and strings; Marshal
		// cannot fail on them.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// prepareSpec validates a submitted job end to end: parse the
// alignment, normalize the options, build the search config through
// core.Prepare (the same path the CLI uses), and derive the result and
// pod keys from the canonical forms.
func prepareSpec(sp JobSpec) (*preparedSpec, error) {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if strings.TrimSpace(sp.Alignment) == "" {
		return nil, fmt.Errorf("serve: empty alignment")
	}
	a, err := seq.ReadPhylip(strings.NewReader(sp.Alignment))
	if err != nil {
		return nil, fmt.Errorf("serve: alignment: %w", err)
	}
	opts, err := normalizeOptions(sp.Options)
	if err != nil {
		return nil, err
	}
	sp.Options = opts

	cfg, _, err := core.Prepare(a, core.Options{
		ModelName:       opts.Model,
		TTRatio:         opts.TTRatio,
		Kappa:           opts.Kappa,
		GTRRates:        gtrRatesStruct(opts.GTRRates),
		Jumbles:         opts.Jumbles,
		Seed:            opts.Seed,
		RearrangeExtent: opts.Extent,
		FinalExtent:     opts.FinalExtent,
		AdaptiveExtent:  opts.Adaptive,
		Engine:          opts.Engine,
		SmoothMode:      opts.SmoothMode,
	})
	if err != nil {
		return nil, err
	}

	// Canonical alignment rendering: parse + rewrite collapses
	// whitespace and interleaving differences, so the same data always
	// hashes the same.
	var canon strings.Builder
	if err := seq.WritePhylip(&canon, a, 0); err != nil {
		return nil, err
	}
	sp.Alignment = canon.String()

	type podDoc struct {
		Alignment  string
		Model      string
		TTRatio    float64
		Kappa      float64
		GTRRates   []float64
		Engine     string
		SmoothMode string
	}
	type resultDoc struct {
		Pod         podDoc
		Jumbles     int
		Seed        int64
		Extent      int
		FinalExtent int
		Adaptive    bool
	}
	pod := podDoc{
		Alignment:  sp.Alignment,
		Model:      opts.Model,
		TTRatio:    opts.TTRatio,
		Kappa:      opts.Kappa,
		GTRRates:   opts.GTRRates,
		Engine:     opts.Engine,
		SmoothMode: opts.SmoothMode,
	}
	return &preparedSpec{
		Spec:   sp,
		Align:  a,
		Cfg:    cfg,
		PodKey: hashJSON(pod),
		ResultKey: hashJSON(resultDoc{
			Pod:         pod,
			Jumbles:     opts.Jumbles,
			Seed:        opts.Seed,
			Extent:      opts.Extent,
			FinalExtent: opts.FinalExtent,
			Adaptive:    opts.Adaptive,
		}),
	}, nil
}
