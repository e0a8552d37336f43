// Package core assembles the fastDNAml reproduction into its user-facing
// form: read a PHYLIP alignment, build the default F84 model with
// empirical base frequencies, run one or more random-order maximum
// likelihood searches — serially or on the parallel
// master/foreman/worker/monitor runtime — and summarize the resulting
// trees with a majority rule consensus.
//
// The heavy lifting lives in the substrate packages (seq, model,
// likelihood, tree, comm, mlsearch); core wires them together the way the
// fastDNAml program does.
package core

import (
	"fmt"
	"io"

	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Options configure an inference run.
type Options struct {
	// ModelName selects the substitution model: "F84" (fastDNAml's
	// model, the default), "JC69", "K80", "HKY85", or "GTR" (§5's "more
	// general models of nucleotide change").
	ModelName string
	// TTRatio is the F84 transition/transversion ratio (default 2.0).
	TTRatio float64
	// Kappa is the K80/HKY85 transition rate multiplier (default 2.0).
	Kappa float64
	// GTRRates are the six exchangeabilities for the GTR model (zero
	// value means all 1, i.e. F81-like behaviour).
	GTRRates model.GTRRates
	// Jumbles is the number of random taxon orderings analyzed
	// (default 1). Biologists typically analyze tens to thousands and
	// compare the best trees (paper §2).
	Jumbles int
	// Seed drives the orderings; even seeds are adjusted as in
	// fastDNAml (§2.1).
	Seed int64
	// MaxConcurrentJumbles bounds how many jumbles (or bootstrap
	// replicates) run concurrently over the shared worker fleet. 0
	// defaults to min(Jumbles, Workers) in parallel runs; results are
	// identical at any setting.
	MaxConcurrentJumbles int
	// RearrangeExtent is the number of vertices crossed in the local
	// rearrangements after each taxon addition (default 1; the paper's
	// performance tests use 5).
	RearrangeExtent int
	// FinalExtent is the extent of the final rearrangement pass
	// (default: same as RearrangeExtent).
	FinalExtent int
	// AdaptiveExtent lets the search adapt the rearrangement extent to
	// recent success (paper §5's planned feature).
	AdaptiveExtent bool
	// Workers selects the runtime: 0 runs the serial program; >= 1 runs
	// the parallel runtime with that many worker processes.
	Workers int
	// Engine names the likelihood backend: "cached" (the CLV-cached
	// production engine, the default) or "reference" (the direct
	// recomputation engine used for differential testing). See
	// likelihood.Engines for the registered set.
	Engine string
	// SmoothMode selects the full-tree branch-smoothing algorithm:
	// "sweep" (or "" — the sequential Newton sweep, the default) or
	// "gradient" (simultaneous smoothing on the linear-time all-branches
	// gradient; same optimum, fewer kernel evaluations).
	SmoothMode string
	// Pipeline is the number of tasks the foreman keeps in flight per
	// worker in parallel runs (default 2; 1 restores the paper's
	// one-task-per-worker dispatch).
	Pipeline int
	// WithMonitor adds the instrumentation process to parallel runs.
	WithMonitor bool
	// MonitorOut receives monitor output (nil discards it).
	MonitorOut io.Writer
	// Weights are optional per-site weights (nil = uniform).
	Weights []float64
	// SiteRates are optional per-site relative rates, e.g. from
	// dnarates (nil = homogeneous).
	SiteRates []float64
	// ConsensusThreshold is the majority rule threshold over jumble
	// results (default 0.5 = strict majority).
	ConsensusThreshold float64
	// Progress receives a notification per adopted tree
	// (jumble, event); the live tree viewer consumes it.
	Progress func(int, mlsearch.ProgressEvent)
	// Obs, when non-nil, attaches run observability (metrics, spans, the
	// /status snapshot) to parallel runs.
	Obs *mlsearch.RunObserver
	// Stop, when non-nil, cancels the run when closed: searches return
	// mlsearch.ErrStopped (wrapped) at their next round boundary, so a
	// signal handler can flush restart files and exit cleanly.
	Stop <-chan struct{}
}

func (o Options) withDefaults() Options {
	if o.ModelName == "" {
		o.ModelName = "F84"
	}
	if o.TTRatio <= 0 {
		o.TTRatio = model.DefaultTTRatio
	}
	if o.Kappa <= 0 {
		o.Kappa = 2.0
	}
	if o.Jumbles < 1 {
		o.Jumbles = 1
	}
	if o.RearrangeExtent == 0 {
		o.RearrangeExtent = 1
	}
	if o.ConsensusThreshold == 0 {
		o.ConsensusThreshold = 0.5
	}
	return o
}

// JumbleResult is the outcome of one random ordering.
type JumbleResult struct {
	// Seed is the (normalized) seed the ordering used.
	Seed int64
	// Tree is the inferred tree.
	Tree *tree.Tree
	// Newick is the inferred tree's canonical rendering.
	Newick string
	// LnL is the tree's log-likelihood.
	LnL float64
	// Search retains the raw search result (round log etc.).
	Search *mlsearch.SearchResult
}

// Inference is the outcome of a full run.
type Inference struct {
	// Jumbles holds each ordering's result, in run order.
	Jumbles []JumbleResult
	// Best points at the highest-likelihood jumble.
	Best *JumbleResult
	// Consensus is the majority rule consensus over the jumble trees
	// (nil when only one jumble ran).
	Consensus *tree.ConsensusResult
	// Model is the substitution model used.
	Model model.Model
	// Patterns is the compressed data set.
	Patterns *seq.Patterns
	// Monitor carries parallel instrumentation when it ran.
	Monitor *mlsearch.MonitorStats
}

// Prepare compresses an alignment and builds the model and search config
// shared by Infer and the benchmark harness.
func Prepare(a *seq.Alignment, opt Options) (mlsearch.Config, Options, error) {
	opt = opt.withDefaults()
	if err := a.Validate(); err != nil {
		return mlsearch.Config{}, opt, err
	}
	pat, err := seq.Compress(a, seq.CompressOptions{Weights: opt.Weights, Rates: opt.SiteRates})
	if err != nil {
		return mlsearch.Config{}, opt, err
	}
	m, err := buildModel(opt, pat)
	if err != nil {
		return mlsearch.Config{}, opt, err
	}
	smode, err := likelihood.ParseSmoothMode(opt.SmoothMode)
	if err != nil {
		return mlsearch.Config{}, opt, err
	}
	cfg := mlsearch.Config{
		Taxa:            a.Names,
		Patterns:        pat,
		Model:           m,
		Seed:            opt.Seed,
		RearrangeExtent: opt.RearrangeExtent,
		FinalExtent:     opt.FinalExtent,
		AdaptiveExtent:  opt.AdaptiveExtent,
		Engine:          opt.Engine,
		SmoothMode:      smode,
	}
	return cfg, opt, nil
}

// buildModel constructs the configured substitution model, using the
// data's empirical base frequencies where the model takes them (paper
// §2.1).
func buildModel(opt Options, pat *seq.Patterns) (model.Model, error) {
	freqs := seq.EmpiricalFreqsPatterns(pat)
	switch opt.ModelName {
	case "F84", "f84":
		return model.NewF84(freqs, opt.TTRatio)
	case "JC69", "jc69", "jc":
		return model.NewJC69(), nil
	case "K80", "k80":
		return model.NewK80(opt.Kappa)
	case "HKY85", "hky85", "hky":
		return model.NewHKY85(freqs, opt.Kappa)
	case "GTR", "gtr":
		r := opt.GTRRates
		if r == (model.GTRRates{}) {
			r = model.GTRRates{AC: 1, AG: 1, AT: 1, CG: 1, CT: 1, GT: 1}
		}
		return model.NewGTR(freqs, r)
	}
	return nil, fmt.Errorf("core: unknown model %q (F84, JC69, K80, HKY85, GTR)", opt.ModelName)
}

// Infer runs the full program over an alignment.
func Infer(a *seq.Alignment, opt Options) (*Inference, error) {
	cfg, opt, err := Prepare(a, opt)
	if err != nil {
		return nil, err
	}

	inf := &Inference{Model: cfg.Model, Patterns: cfg.Patterns}

	// One Run call covers both runtimes: the serial baseline and the
	// in-process parallel program.
	transport := mlsearch.Serial
	if opt.Workers > 0 {
		transport = mlsearch.Local
	}
	out, err := mlsearch.Run(cfg, mlsearch.RunOptions{
		Transport:            transport,
		Workers:              opt.Workers,
		WithMonitor:          opt.WithMonitor,
		MonitorOut:           opt.MonitorOut,
		Jumbles:              opt.Jumbles,
		MaxConcurrentJumbles: opt.MaxConcurrentJumbles,
		Progress:             opt.Progress,
		Obs:                  opt.Obs,
		Stop:                 opt.Stop,
		Foreman:              mlsearch.ForemanOptions{Pipeline: opt.Pipeline},
	})
	if err != nil {
		return nil, err
	}
	results := out.Results
	inf.Monitor = out.Monitor

	for j, res := range results {
		tr, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
		if err != nil {
			return nil, fmt.Errorf("core: jumble %d result: %w", j, err)
		}
		inf.Jumbles = append(inf.Jumbles, JumbleResult{
			// The search reports the seed it actually ran with; deriving
			// it from j here would mislabel resumed runs.
			Seed:   res.Seed,
			Tree:   tr,
			Newick: res.BestNewick,
			LnL:    res.LnL,
			Search: res,
		})
	}
	best := &inf.Jumbles[0]
	for i := range inf.Jumbles {
		if inf.Jumbles[i].LnL > best.LnL {
			best = &inf.Jumbles[i]
		}
	}
	inf.Best = best

	if len(inf.Jumbles) > 1 {
		var trees []*tree.Tree
		for i := range inf.Jumbles {
			trees = append(trees, inf.Jumbles[i].Tree)
		}
		cons, err := tree.MajorityRule(trees, opt.ConsensusThreshold)
		if err != nil {
			return nil, fmt.Errorf("core: consensus: %w", err)
		}
		inf.Consensus = cons
	}
	return inf, nil
}
