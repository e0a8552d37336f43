package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/likelihood"
	"repro/internal/likelihood/difftest"
	"repro/internal/mlsearch"
	"repro/internal/obs"
	"repro/internal/tree"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 25

// hitBlock is how many re-scorings of the best tree a search run times
// before its first search and after each one. Spreading them over the
// run keeps a few slow seconds on a shared host from setting the median.
const hitBlock = 25

// searchOutcome is one complete search through mlsearch.Run (or, when
// traced, through the benchmark's own dispatcher).
type searchOutcome struct {
	Res *mlsearch.SearchResult
	// Search is the wall time of the search proper; Job adds the
	// set-up Run does itself (router start and worker join for TCP).
	Search, Job, TransportSetup time.Duration
	// Trace holds the per-layer attribution of a traced search.
	Trace *searchTrace
}

// searchTrace is what a traced search measured around its layers.
type searchTrace struct {
	Kinds  map[mlsearch.RoundKind]time.Duration
	Eval   time.Duration // time inside Evaluator.Evaluate
	Engine engineTotals
	// Metrics is the run observer's registry rendered and parsed (TCP).
	Metrics promSample
}

// runSearchWorkload measures a serial or TCP search workload.
func runSearchWorkload(w workload, p pins, seconds float64, traced bool) (*result, error) {
	ref, ok := p.References[w.Name]
	if !ok {
		return nil, fmt.Errorf("perfbench: no pinned reference for %s", w.Name)
	}
	// Set-up: build the inputs several times, keep the last.
	var (
		ds                  *dataset
		setups, gens, comps []float64
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		d, err := makeDataset(w, 0, p.Inputs[inputKey(w, 0)])
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, d.Generate.Seconds())
		comps = append(comps, d.Compress.Seconds())
		ds = d
	}

	res := &result{Metrics: newMetricSet()}
	check := func(o *searchOutcome) {
		res.Attempted++
		if err := checkSearch(ds, o.Res, ref); err != nil {
			res.fail(err)
		}
	}

	var (
		untraced, tracedRuns []*searchOutcome
		hits                 []float64
	)
	rescore := func(newick string, lnL float64) {
		if traced {
			return
		}
		res.Attempted++
		h, err := rescoreBest(ds, newick, lnL)
		if err != nil {
			res.fail(err)
		}
		hits = append(hits, h...)
	}
	rescore(ref.Newick, ref.LnL)
	begin := time.Now()
	for {
		o, err := runSearch(w, ds, false)
		if err != nil {
			return nil, err
		}
		check(o)
		untraced = append(untraced, o)
		rescore(o.Res.BestNewick, o.Res.LnL)
		if traced {
			t, err := runSearch(w, ds, true)
			if err != nil {
				return nil, err
			}
			check(t)
			if t.Res.BestNewick != o.Res.BestNewick || t.Res.LnL != o.Res.LnL {
				res.fail(fmt.Errorf("traced search differs from untraced: lnL %v vs %v", t.Res.LnL, o.Res.LnL))
			}
			tracedRuns = append(tracedRuns, t)
		}
		// Start another only if it fits in the time left.
		per := time.Since(begin).Seconds() / float64(len(untraced))
		if time.Since(begin).Seconds()+per > seconds {
			break
		}
	}

	searchS := durSeconds(untraced, func(o *searchOutcome) time.Duration { return o.Search })
	transport := durSeconds(untraced, func(o *searchOutcome) time.Duration { return o.TransportSetup })
	if !traced {
		jobs := durSeconds(untraced, func(o *searchOutcome) time.Duration { return o.Job })
		var total float64
		for _, j := range jobs {
			total += j
		}
		p90 := tailPercentile(jobs, 90)
		m := res.Metrics
		m.put("search_s", "s", median(searchS))
		m.put("setup_s", "s", median(setups)+median(transport))
		m.put("job_p50_s", "s", median(jobs))
		m.put("job_p90_s", "s", p90.Value)
		m.put("hit_p50_ms", "ms", median(hits)*1e3)
		m.put("jobs_per_s", "1/s", float64(len(jobs))/total)
		m.put("peak_rss_mb", "MB", peakRSSMB())
		res.Notes = append(res.Notes, fmt.Sprintf("searches=%d job tail=p%.0f of %d; set-up: inputs %.4fs, transport %.4fs",
			len(jobs), p90.P, p90.N, median(setups), median(transport)))
		res.Notes = append(res.Notes, fmt.Sprintf("search_s each: %.4g", searchS))
		return res, nil
	}

	tracedS := durSeconds(tracedRuns, func(o *searchOutcome) time.Duration { return o.Search })
	l := newLayerMetrics()
	l.seq(median(gens), median(comps), ds.Cfg.Patterns.NumPatterns(), median(setups))
	// Attribute the median traced search.
	t := medianOutcome(tracedRuns)
	base := t.Search.Seconds()
	l.engine(t.Trace.Engine, base)
	l.seconds("evaluator.self_s", t.Trace.Eval.Seconds()-t.Trace.Engine.Seconds(), base)
	var dispatch time.Duration
	for _, d := range t.Trace.Kinds {
		dispatch += d
	}
	l.seconds("search.self_s", base-dispatch.Seconds(), base)
	l.seconds("search.add_s", t.Trace.Kinds[mlsearch.RoundAdd].Seconds(), base)
	l.seconds("search.smooth_s", (t.Trace.Kinds[mlsearch.RoundSmooth] + t.Trace.Kinds[mlsearch.RoundInit]).Seconds(), base)
	l.seconds("search.rearrange_s", t.Trace.Kinds[mlsearch.RoundRearrange].Seconds(), base)
	l.seconds("search.final_s", t.Trace.Kinds[mlsearch.RoundFinal].Seconds(), base)
	var genBytes uint64
	for _, r := range t.Res.Rounds {
		genBytes += r.GenBytes
	}
	l.count("search.rounds", float64(len(t.Res.Rounds)))
	l.count("search.tasks", float64(t.Res.TotalTasks))
	l.count("search.gen_bytes", float64(genBytes))
	l.foreman(t.Trace.Metrics, base, t.Res.TotalTasks, w.Workers, base)
	l.serve(serveLayer{})
	l.m.put("trace.search_s", "s", median(tracedS))
	l.m.put("trace.overhead_frac", "ratio", median(tracedS)/median(searchS)-1)
	l.m.put("check.failed_frac", "ratio", share(float64(res.Failed), float64(res.Attempted)))
	res.Metrics = l.m
	return res, nil
}

// runSearch runs one complete search of the workload's input.
func runSearch(w workload, ds *dataset, traced bool) (*searchOutcome, error) {
	if w.Kind == kindTCP {
		return runTCPSearch(w, ds, traced)
	}
	if !traced {
		start := time.Now()
		out, err := mlsearch.Run(ds.Cfg, mlsearch.RunOptions{})
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		return &searchOutcome{Res: out.Results[0], Search: d, Job: d}, nil
	}
	engineTally.reset()
	start := time.Now()
	disp, err := newEvalDispatcher(ds.Cfg)
	if err != nil {
		return nil, err
	}
	s, err := mlsearch.NewSearch(ds.Cfg, disp)
	if err != nil {
		return nil, err
	}
	r, err := s.Run()
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	kinds, err := roundKinds(disp.rounds, r.Rounds)
	if err != nil {
		return nil, err
	}
	tr := &searchTrace{Kinds: kinds, Eval: disp.eval, Engine: engineTally.totals()}
	return &searchOutcome{Res: r, Search: d, Job: d, Trace: tr}, nil
}

// runTCPSearch runs the distributed program over loopback: Run hosts
// the router, master and foreman; w.Workers ServeElastic workers join
// as goroutines once the router listens. A traced run attaches a
// RunObserver (its bus gives the round spans, its registry the
// foreman and router counters) and builds worker engines through the
// timing decorator.
func runTCPSearch(w workload, ds *dataset, traced bool) (*searchOutcome, error) {
	hooks := mlsearch.WorkerHooks{}
	var (
		ob     *mlsearch.RunObserver
		reg    *obs.Registry
		spanMu sync.Mutex
		spans  []roundSpan
		open   = map[uint64]time.Time{}
		opened = map[uint64]int{}
	)
	if traced {
		engineTally.reset()
		hooks.Engine, hooks.EngineSet = tracedEngineName, true
		reg = obs.NewRegistry()
		bus := obs.NewBus()
		ob = mlsearch.NewRunObserver(reg, bus)
		defer obs.SubscribeTo(bus, func(e mlsearch.RoundStarted) {
			spanMu.Lock()
			open[e.Round], opened[e.Round] = e.At, e.Tasks
			spanMu.Unlock()
		})()
		defer obs.SubscribeTo(bus, func(e mlsearch.RoundCompleted) {
			spanMu.Lock()
			spans = append(spans, roundSpan{Tasks: opened[e.Round], Dur: e.At.Sub(open[e.Round])})
			spanMu.Unlock()
		})()
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		workErrs []error
		joinMu   sync.Mutex
		joined   int
		ready    time.Time
	)
	start := time.Now()
	opt := mlsearch.RunOptions{
		Transport: mlsearch.TCP,
		Workers:   w.Workers,
		Addr:      "127.0.0.1:0",
		Bundle:    mlsearch.DataBundle{PhylipText: ds.Phylip},
		Obs:       ob,
		OnListen: func(addr net.Addr) {
			for i := 0; i < w.Workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := mlsearch.ServeElastic(addr.String(), hooks, mlsearch.ReconnectPolicy{Disabled: true}); err != nil {
						errMu.Lock()
						workErrs = append(workErrs, err)
						errMu.Unlock()
					}
				}()
			}
		},
		OnMember: func(_ int, in bool) {
			joinMu.Lock()
			defer joinMu.Unlock()
			if in {
				joined++
				if joined == w.Workers {
					ready = time.Now()
				}
			}
		},
	}
	out, err := mlsearch.Run(ds.Cfg, opt)
	end := time.Now()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if len(workErrs) > 0 {
		return nil, fmt.Errorf("perfbench: worker: %w", workErrs[0])
	}
	joinMu.Lock()
	joinedAt := ready
	joinMu.Unlock()
	if joinedAt.IsZero() {
		return nil, fmt.Errorf("perfbench: %d workers never joined", w.Workers)
	}
	o := &searchOutcome{
		Res:            out.Results[0],
		Search:         end.Sub(joinedAt),
		Job:            end.Sub(start),
		TransportSetup: joinedAt.Sub(start),
	}
	if traced {
		kinds, err := roundKinds(spans, o.Res.Rounds)
		if err != nil {
			return nil, err
		}
		sample, err := scrapeRegistry(reg)
		if err != nil {
			return nil, err
		}
		o.Trace = &searchTrace{
			Kinds:   kinds,
			Eval:    time.Duration(sample.get(`fdml_task_phase_seconds_sum{phase="eval"}`) * float64(time.Second)),
			Engine:  engineTally.totals(),
			Metrics: sample,
		}
	}
	return o, nil
}

// checkSearch compares a search result with the pinned reference: the
// same unrooted topology, and lnL within the differential harness's
// post-optimization tolerance (difftest.DefaultTolerance), which
// tolerates last-digit drift from a numerically equivalent engine.
func checkSearch(ds *dataset, got *mlsearch.SearchResult, ref reference) error {
	gt, err := tree.ParseNewick(got.BestNewick, ds.Cfg.Taxa)
	if err != nil {
		return fmt.Errorf("best tree: %w", err)
	}
	rt, err := tree.ParseNewick(ref.Newick, ds.Cfg.Taxa)
	if err != nil {
		return fmt.Errorf("pinned tree: %w", err)
	}
	if !tree.SameTopology(gt, rt) {
		return fmt.Errorf("best tree topology differs from the pinned reference")
	}
	if !lnLClose(got.LnL, ref.LnL) {
		return fmt.Errorf("lnL %.6f, pinned %.6f", got.LnL, ref.LnL)
	}
	return nil
}

// lnLClose applies the post-optimization lnL tolerance.
func lnLClose(a, b float64) bool {
	tol := difftest.DefaultTolerance(likelihood.Float64)
	d := math.Abs(a - b)
	return d <= tol.OptAbs || d <= tol.OptRel*math.Abs(b)
}

// rescoreBest times hitBlock runs of fastDNAml's user-tree mode on a
// search's best tree (mlsearch.EvaluateUserTrees over a serial
// dispatcher): the cheapest request about a finished search. The
// re-scored tree keeps its topology and must not lose likelihood.
func rescoreBest(ds *dataset, newick string, lnL float64) ([]float64, error) {
	tr, err := tree.ParseNewick(newick, ds.Cfg.Taxa)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < hitBlock; i++ {
		start := time.Now()
		disp, err := mlsearch.NewSerialDispatcher(ds.Cfg)
		if err != nil {
			return nil, err
		}
		got, err := mlsearch.EvaluateUserTrees(ds.Cfg, []*tree.Tree{tr}, disp)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
		if got[0].LnL < lnL && !lnLClose(got[0].LnL, lnL) {
			return out, fmt.Errorf("re-scored best tree lost likelihood: %.6f < %.6f", got[0].LnL, lnL)
		}
	}
	return out, nil
}

// durSeconds maps outcomes to seconds.
func durSeconds(os []*searchOutcome, f func(*searchOutcome) time.Duration) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = f(o).Seconds()
	}
	return out
}

// medianOutcome returns the outcome with the median search time (the
// lower middle one for an even count).
func medianOutcome(os []*searchOutcome) *searchOutcome {
	best := os[0]
	s := durSeconds(os, func(o *searchOutcome) time.Duration { return o.Search })
	m := median(s)
	for i, o := range os {
		if math.Abs(s[i]-m) < math.Abs(best.Search.Seconds()-m) {
			best = o
		}
	}
	return best
}
