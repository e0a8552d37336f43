package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/obs"
)

// The daemon's elastic worker fleet. Worker engines are dataset-bound —
// a foreman and its workers serve exactly one alignment + model — so
// the fleet is organized as pods: each pod is a persistent warm Local
// world (foreman, K workers, a JobMux for per-job lanes) keyed by the
// dataset hash. Jobs over the same dataset share a pod and its warm CLV
// caches; a pod whose last job finished idles until the TTL reaps it.
// The pod count is bounded, so the fleet's worker budget is
// MaxPods × Workers regardless of how many distinct datasets clients
// submit.

// ErrFleetSaturated reports that every pod slot is held by a running
// job's dataset; the caller backs off and retries.
var ErrFleetSaturated = errors.New("serve: fleet saturated (all pods busy with other datasets)")

// FleetOptions size the fleet.
type FleetOptions struct {
	// Workers is the worker goroutine count per pod (default 2).
	Workers int
	// MaxPods bounds how many warm pods exist at once (default 2).
	MaxPods int
	// IdleTTL is how long an unreferenced pod stays warm before the
	// reaper shuts it down (default 5m).
	IdleTTL time.Duration
	// Pipeline is the foreman's per-worker task pipeline depth
	// (default 2).
	Pipeline int
	// TaskTimeout re-dispatches a task whose worker has not answered
	// (default 1m; the inline evaluator is the last rung, so a pod
	// always makes progress).
	TaskTimeout time.Duration
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.MaxPods < 1 {
		o.MaxPods = 2
	}
	if o.IdleTTL <= 0 {
		o.IdleTTL = 5 * time.Minute
	}
	if o.TaskTimeout == 0 {
		o.TaskTimeout = time.Minute
	}
	return o
}

// pod is one warm dataset-bound world.
type pod struct {
	key string
	mux *mlsearch.JobMux
	obs *mlsearch.RunObserver

	refs int
	idle time.Time
	wg   sync.WaitGroup

	errMu sync.Mutex
	errs  []error
}

// fail records a role goroutine's error for surfacing at shutdown.
func (p *pod) fail(err error) {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	p.errs = append(p.errs, err)
}

// Fleet owns the pods.
type Fleet struct {
	opt  FleetOptions
	reg  *obs.Registry
	bus  *obs.Bus
	logf func(format string, args ...any)

	mu     sync.Mutex
	pods   map[string]*pod
	closed bool

	gPods    *obs.Gauge
	mCreated *obs.Counter
	mReaped  *obs.Counter
}

// NewFleet builds an empty fleet publishing pod metrics into reg.
func NewFleet(opt FleetOptions, reg *obs.Registry, bus *obs.Bus) *Fleet {
	return &Fleet{
		opt:      opt.withDefaults(),
		reg:      reg,
		bus:      bus,
		logf:     func(string, ...any) {},
		pods:     map[string]*pod{},
		gPods:    reg.Gauge("fdml_serve_pods", "Warm worker pods."),
		mCreated: reg.Counter("fdml_serve_pods_created_total", "Worker pods created."),
		mReaped:  reg.Counter("fdml_serve_pods_reaped_total", "Worker pods shut down after idling."),
	}
}

// Acquire returns a pod for the dataset key, creating one if needed.
// Every Acquire must be paired with a Release. When all pod slots are
// held by other datasets' running jobs it returns ErrFleetSaturated.
func (f *Fleet) Acquire(key string, cfg mlsearch.Config) (*pod, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("serve: fleet closed")
	}
	if p := f.pods[key]; p != nil {
		p.refs++
		return p, nil
	}
	if len(f.pods) >= f.opt.MaxPods {
		// Evict the longest-idle unreferenced pod to make room.
		var victim *pod
		for _, p := range f.pods {
			if p.refs == 0 && (victim == nil || p.idle.Before(victim.idle)) {
				victim = p
			}
		}
		if victim == nil {
			return nil, ErrFleetSaturated
		}
		delete(f.pods, victim.key)
		f.gPods.Set(float64(len(f.pods)))
		f.mReaped.Inc()
		// Shut the victim down outside the lock; its JobMux has no live
		// dispatchers (refs was 0).
		go f.shutdownPod(victim)
	}
	p, err := f.newPod(key, cfg)
	if err != nil {
		return nil, err
	}
	p.refs = 1
	f.pods[key] = p
	f.gPods.Set(float64(len(f.pods)))
	f.mCreated.Inc()
	return p, nil
}

// newPod spins up the warm world: the same wiring as the Local
// transport, but long-lived — the master side is a JobMux that mints a
// dispatcher lane per search instead of one fixed run.
func (f *Fleet) newPod(key string, cfg mlsearch.Config) (*pod, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	size := f.opt.Workers + 2
	world, err := comm.NewLocal(size)
	if err != nil {
		return nil, err
	}
	lay, err := mlsearch.DefaultLayout(size, false)
	if err != nil {
		return nil, err
	}
	// The inline evaluator is the degradation floor: if every worker in
	// the pod dies, rounds still complete.
	eng, err := likelihood.NewEngine(norm.Engine, norm.Model, norm.Patterns, likelihood.EngineOptions{})
	if err != nil {
		return nil, err
	}
	p := &pod{key: key, idle: time.Now()}
	p.obs = mlsearch.NewRunObserver(f.reg, f.bus)

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		err := mlsearch.RunForeman(world[lay.Foreman], lay, mlsearch.ForemanOptions{
			TaskTimeout: f.opt.TaskTimeout,
			Inline:      newPodEvaluator(eng, norm),
			Pipeline:    f.opt.Pipeline,
			Obs:         p.obs,
		})
		if err != nil {
			p.fail(fmt.Errorf("pod %.8s foreman: %w", key, err))
		}
	}()
	for _, w := range lay.Workers {
		p.wg.Add(1)
		go func(rank int) {
			defer p.wg.Done()
			// Unlike the one-shot Local transport, the pod pins the
			// engine choice explicitly so every worker matches the
			// dataset key it serves.
			hooks := mlsearch.WorkerHooks{
				Engine:        norm.Engine,
				EngineSet:     true,
				SmoothMode:    norm.SmoothMode,
				SmoothModeSet: true,
			}
			err := mlsearch.RunWorker(world[rank], lay, norm.Model, norm.Patterns, norm.Taxa, hooks)
			if err != nil {
				p.fail(fmt.Errorf("pod %.8s worker %d: %w", key, rank, err))
			}
		}(w)
	}
	mux, err := mlsearch.NewJobMux(world[lay.Master], lay)
	if err != nil {
		_ = world[lay.Master].Close()
		p.wg.Wait()
		return nil, err
	}
	p.mux = mux
	return p, nil
}

// newPodEvaluator builds the foreman's inline fallback evaluator with
// the pod's smoothing mode, matching what the pod workers apply.
func newPodEvaluator(eng likelihood.Engine, norm mlsearch.Config) *mlsearch.Evaluator {
	ev := mlsearch.NewEvaluator(eng, norm.Taxa)
	ev.SetSmoothMode(norm.SmoothMode)
	return ev
}

// Release returns a pod reference; an unreferenced pod starts its idle
// clock. A release without a matching Acquire is a caller bug: the
// count must never go negative — a negative count would make the pod
// look idle while a job still holds it (reapable mid-run) and then
// immortal once re-acquired — so it is clamped at zero and logged
// loudly instead of corrupting the lifecycle.
func (f *Fleet) Release(p *pod) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.refs <= 0 {
		f.logf("BUG: fleet: double release of pod %.8s (refs %d); dropping the extra release", p.key, p.refs)
		return
	}
	p.refs--
	if p.refs == 0 {
		p.idle = time.Now()
	}
}

// Reap shuts down pods that have idled past the TTL, returning how many
// it reaped.
func (f *Fleet) Reap(now time.Time) int {
	f.mu.Lock()
	var victims []*pod
	for key, p := range f.pods {
		if p.refs == 0 && now.Sub(p.idle) >= f.opt.IdleTTL {
			victims = append(victims, p)
			delete(f.pods, key)
		}
	}
	f.gPods.Set(float64(len(f.pods)))
	f.mu.Unlock()
	for _, p := range victims {
		f.shutdownPod(p)
		f.mReaped.Inc()
	}
	return len(victims)
}

// shutdownPod tears one world down: the mux broadcasts shutdown, the
// foreman drains its workers, and the role goroutines exit.
func (f *Fleet) shutdownPod(p *pod) {
	_ = p.mux.Shutdown()
	p.wg.Wait()
}

// Pods reports the warm pod count.
func (f *Fleet) Pods() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pods)
}

// Close shuts every pod down. Callers must have stopped all jobs first
// (no live dispatchers).
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	pods := make([]*pod, 0, len(f.pods))
	for _, p := range f.pods {
		pods = append(pods, p)
	}
	f.pods = map[string]*pod{}
	f.gPods.Set(0)
	f.mu.Unlock()

	var first error
	for _, p := range pods {
		f.shutdownPod(p)
		p.errMu.Lock()
		if first == nil && len(p.errs) > 0 {
			first = p.errs[0]
		}
		p.errMu.Unlock()
	}
	return first
}
