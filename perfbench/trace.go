package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Per-layer tracing from outside the program: a decorator around the
// likelihood.Engine interface times every call into the engine, and the
// benchmark's own serial Dispatcher times every round and every
// Evaluate call. Neither changes what the program computes.

// Engine call classes.
const (
	opInsertScore = iota // InsertScorer.Score: one candidate insertion
	opLocal              // OptimizeBranches restricted to a neighbourhood, OptimizeEdge
	opFull               // OptimizeBranches over the whole tree
	opLogLik             // LogLikelihood, SiteLogLikelihoods
	numOps
)

var opNames = [numOps]string{"insert_score", "opt_local", "opt_full", "loglik"}

// tracedEngineName registers the timing decorator in the engine
// registry, so workers that build their engine by name (ServeElastic
// workers, serve pods) can be traced without code changes.
const tracedEngineName = "perfbench-traced"

func init() {
	likelihood.Register(tracedEngineName, func(m model.Model, p *seq.Patterns, opt likelihood.EngineOptions) (likelihood.Engine, error) {
		inner, err := likelihood.NewEngine(likelihood.DefaultEngine, m, p, opt)
		if err != nil {
			return nil, err
		}
		return engineTally.wrap(inner), nil
	})
}

// engineTally collects every traced engine built in this process.
var engineTally = &tallies{}

type tallies struct {
	mu      sync.Mutex
	engines []*timedEngine
}

func (t *tallies) wrap(inner likelihood.Engine) *timedEngine {
	e := &timedEngine{inner: inner}
	t.mu.Lock()
	t.engines = append(t.engines, e)
	t.mu.Unlock()
	return e
}

// reset forgets every engine built so far.
func (t *tallies) reset() {
	t.mu.Lock()
	t.engines = nil
	t.mu.Unlock()
}

// engineTotals sums the traced engines' timings and counters.
type engineTotals struct {
	Calls [numOps]int64
	Time  [numOps]time.Duration
	Stats likelihood.EngineStats
	Ops   uint64
}

// Seconds is the time spent inside engine calls.
func (t engineTotals) Seconds() float64 {
	var d time.Duration
	for _, x := range t.Time {
		d += x
	}
	return d.Seconds()
}

// minus returns the work done since an earlier snapshot.
func (t engineTotals) minus(before engineTotals) engineTotals {
	for i := range t.Calls {
		t.Calls[i] -= before.Calls[i]
		t.Time[i] -= before.Time[i]
	}
	t.Stats.Hits -= before.Stats.Hits
	t.Stats.Misses -= before.Stats.Misses
	t.Stats.NewtonIters -= before.Stats.NewtonIters
	t.Stats.SmoothPasses -= before.Stats.SmoothPasses
	t.Ops -= before.Ops
	return t
}

// totals sums every engine's tallies. Call it only once the goroutines
// driving those engines have returned.
func (t *tallies) totals() engineTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out engineTotals
	for _, e := range t.engines {
		for i := range out.Calls {
			out.Calls[i] += e.calls[i]
			out.Time[i] += e.spent[i]
		}
		st, ops := e.final()
		out.Stats.Hits += st.Hits
		out.Stats.Misses += st.Misses
		out.Stats.NewtonIters += st.NewtonIters
		out.Stats.SmoothPasses += st.SmoothPasses
		out.Ops += ops
	}
	return out
}

// timedEngine forwards to a real engine, timing each call by class. It
// forwards the StatsReporter, OpsReporter and Closer capabilities, so
// Result.Ops, CacheHits and NewtonIters stay filled in.
type timedEngine struct {
	inner likelihood.Engine
	calls [numOps]int64
	spent [numOps]time.Duration

	closed   bool
	stats    likelihood.EngineStats
	opsTotal uint64
}

func (e *timedEngine) record(op int, start time.Time) {
	e.calls[op]++
	e.spent[op] += time.Since(start)
}

// final reports the engine's counters, frozen at Close if it was closed.
func (e *timedEngine) final() (likelihood.EngineStats, uint64) {
	if e.closed {
		return e.stats, e.opsTotal
	}
	return likelihood.StatsOf(e.inner), likelihood.OpsOf(e.inner)
}

func (e *timedEngine) Model() model.Model      { return e.inner.Model() }
func (e *timedEngine) Patterns() *seq.Patterns { return e.inner.Patterns() }

func (e *timedEngine) LogLikelihood(t *tree.Tree) (float64, error) {
	defer e.record(opLogLik, time.Now())
	return e.inner.LogLikelihood(t)
}

func (e *timedEngine) SiteLogLikelihoods(t *tree.Tree) ([]float64, error) {
	defer e.record(opLogLik, time.Now())
	return e.inner.SiteLogLikelihoods(t)
}

func (e *timedEngine) OptimizeBranches(t *tree.Tree, opt likelihood.OptOptions) (float64, error) {
	op := opFull
	if opt.Around != nil || len(opt.Centers) > 0 {
		op = opLocal
	}
	defer e.record(op, time.Now())
	return e.inner.OptimizeBranches(t, opt)
}

func (e *timedEngine) OptimizeEdge(t *tree.Tree, ed tree.Edge) (float64, error) {
	defer e.record(opLocal, time.Now())
	return e.inner.OptimizeEdge(t, ed)
}

func (e *timedEngine) NewInsertScorer(base *tree.Tree, taxon int) (likelihood.InsertScorer, error) {
	// Scorer preparation computes the base tree's partials; it is
	// charged to the scores it serves.
	start := time.Now()
	sc, err := e.inner.NewInsertScorer(base, taxon)
	e.spent[opInsertScore] += time.Since(start)
	if err != nil {
		return nil, err
	}
	return &timedScorer{e: e, inner: sc}, nil
}

func (e *timedEngine) Stats() likelihood.EngineStats { return likelihood.StatsOf(e.inner) }

func (e *timedEngine) ResetStats() likelihood.EngineStats {
	if s, ok := e.inner.(likelihood.StatsReporter); ok {
		return s.ResetStats()
	}
	return likelihood.EngineStats{}
}

func (e *timedEngine) Ops() uint64 { return likelihood.OpsOf(e.inner) }

func (e *timedEngine) ResetOps() uint64 {
	if o, ok := e.inner.(likelihood.OpsReporter); ok {
		return o.ResetOps()
	}
	return 0
}

func (e *timedEngine) Close() {
	if e.closed {
		return
	}
	e.stats, e.opsTotal = likelihood.StatsOf(e.inner), likelihood.OpsOf(e.inner)
	e.closed = true
	likelihood.CloseEngine(e.inner)
}

var (
	_ likelihood.StatsReporter = (*timedEngine)(nil)
	_ likelihood.OpsReporter   = (*timedEngine)(nil)
	_ likelihood.Closer        = (*timedEngine)(nil)
)

type timedScorer struct {
	e     *timedEngine
	inner likelihood.InsertScorer
}

func (s *timedScorer) Score(ed tree.Edge, passes int) (likelihood.InsertScore, error) {
	defer s.e.record(opInsertScore, time.Now())
	return s.inner.Score(ed, passes)
}

// roundSpan is one dispatch round as timed from outside.
type roundSpan struct {
	Tasks int
	Dur   time.Duration
}

// evalDispatcher is the benchmark's serial Dispatcher: the same loop as
// mlsearch.SerialDispatcher over an Evaluator built on the traced
// engine, with every round and every Evaluate call timed.
type evalDispatcher struct {
	ev     *mlsearch.Evaluator
	rounds []roundSpan
	eval   time.Duration
}

func newEvalDispatcher(cfg mlsearch.Config) (*evalDispatcher, error) {
	inner, err := likelihood.NewEngine(likelihood.DefaultEngine, cfg.Model, cfg.Patterns, likelihood.EngineOptions{})
	if err != nil {
		return nil, err
	}
	return &evalDispatcher{ev: mlsearch.NewEvaluator(engineTally.wrap(inner), cfg.Taxa)}, nil
}

func (d *evalDispatcher) Dispatch(tasks []mlsearch.Task) ([]mlsearch.Result, error) {
	start := time.Now()
	out := make([]mlsearch.Result, 0, len(tasks))
	for _, t := range tasks {
		t0 := time.Now()
		r, err := d.ev.Evaluate(t)
		d.eval += time.Since(t0)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	d.rounds = append(d.rounds, roundSpan{Tasks: len(tasks), Dur: time.Since(start)})
	return out, nil
}

// roundKinds attributes timed rounds to the search's round log, which
// records every dispatched round in order with its kind. The task
// counts must agree round by round, or the attribution is refused.
func roundKinds(spans []roundSpan, log []mlsearch.RoundStats) (map[mlsearch.RoundKind]time.Duration, error) {
	if len(spans) != len(log) {
		return nil, fmt.Errorf("perfbench: timed %d rounds, search logged %d", len(spans), len(log))
	}
	out := map[mlsearch.RoundKind]time.Duration{}
	for i, sp := range spans {
		if sp.Tasks != len(log[i].Tasks) {
			return nil, fmt.Errorf("perfbench: round %d: timed %d tasks, search logged %d", i, sp.Tasks, len(log[i].Tasks))
		}
		out[log[i].Kind] += sp.Dur
	}
	return out, nil
}
