package mlsearch

import (
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/comm"
	"repro/internal/likelihood"
)

// Run is the single entry point to the search runtime. One Config plus
// one RunOptions selects between the paper's serial program, the
// in-process parallel program (goroutine ranks), and the distributed TCP
// program with elastic worker membership — the same search algorithm
// behind three transports, the way fastDNAml swaps comm_mpi.c for
// comm_pvm.c without touching the inference code.

// Transport selects how a Run executes its task rounds.
type Transport int

// Transports.
const (
	// Serial evaluates every task in the calling goroutine — the
	// uniprocessor baseline of the scaling study.
	Serial Transport = iota
	// Local runs master, foreman, workers (and optionally the monitor)
	// as goroutines connected by the in-process comm backend.
	Local
	// TCP hosts the distributed program: this process runs the router,
	// master, foreman, and optional monitor; workers join over sockets
	// (cmd/fdworker) and may come and go at any time.
	TCP
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case Serial:
		return "serial"
	case Local:
		return "local"
	case TCP:
		return "tcp"
	}
	return fmt.Sprintf("transport(%d)", int(t))
}

// RunOptions configure Run across every transport. Zero value = one
// serial search.
type RunOptions struct {
	// Transport selects the runtime.
	Transport Transport

	// Workers: for Local, the number of worker goroutines (>= 1). For
	// TCP, the number of workers to wait for before starting the search
	// (0 starts immediately; the foreman evaluates inline until workers
	// join). Ignored for Serial.
	Workers int
	// WithMonitor adds the instrumentation process (Local and TCP).
	WithMonitor bool
	// Jumbles is the number of random orderings to run (>= 1).
	Jumbles int
	// MaxConcurrentJumbles bounds how many jumbles run concurrently as
	// jobs over the shared foreman. 0 defaults to min(Jumbles, Workers)
	// for the parallel transports (Serial always runs one at a time).
	// Per-jumble results are identical at any setting; only wall-clock
	// changes.
	MaxConcurrentJumbles int
	// Foreman tunes dispatch fault tolerance (Local and TCP).
	Foreman ForemanOptions
	// MonitorOut receives monitor output lines (nil discards).
	MonitorOut io.Writer
	// Obs, when non-nil, attaches run observability to the hosting
	// process: the foreman updates its metrics, bus, spans, and /status
	// snapshot (shorthand for setting Foreman.Obs).
	Obs *RunObserver
	// WorkerHooks, keyed by rank, perturb Local workers for fault
	// injection tests.
	WorkerHooks map[int]WorkerHooks
	// Progress receives per-round events (jumble index, event).
	Progress func(int, ProgressEvent)
	// Stop, when non-nil, cancels the run when closed: every search
	// returns ErrStopped (wrapped) at its next round boundary. The last
	// checkpoints handed to OnCheckpoint stay valid resume points, which
	// is what lets a SIGTERM'd run flush its restart file and exit 0.
	Stop <-chan struct{}
	// OnCheckpoint receives a resumable position (jumble index,
	// checkpoint) after every completed taxon addition.
	OnCheckpoint func(int, Checkpoint)
	// Resume, when non-nil, continues a previously checkpointed search
	// instead of starting fresh. Requires Jumbles <= 1; multi-jumble
	// runs resume through ResumeManifest.
	Resume *Checkpoint
	// ResumeManifest, when non-nil, resumes a multi-jumble run: each
	// jumble with a manifest entry continues from its checkpoint (done
	// jumbles return their stored result immediately); jumbles without
	// an entry start fresh from their derived seed.
	ResumeManifest *Manifest

	// Addr is the TCP listen address (e.g. ":7946" or "127.0.0.1:0").
	Addr string
	// Bundle is the dataset shipped to joining TCP workers inside the
	// join handshake.
	Bundle DataBundle
	// OnListen, when non-nil, is invoked with the bound address before
	// waiting for workers (useful with ":0" and for tests).
	OnListen func(net.Addr)
	// OnMember, when non-nil, observes elastic membership from the
	// hosting process: OnMember(rank, true) on join, (rank, false) on
	// leave.
	OnMember func(rank int, joined bool)
}

// RunOutcome is the result of a Run.
type RunOutcome struct {
	// Results holds one SearchResult per jumble.
	Results []*SearchResult
	// Monitor holds the monitor statistics when the monitor ran.
	Monitor *MonitorStats
}

// Run executes a complete search (all jumbles) on the selected
// transport.
func Run(cfg Config, opt RunOptions) (*RunOutcome, error) {
	if opt.Jumbles < 1 {
		opt.Jumbles = 1
	}
	if opt.Resume != nil && opt.Jumbles > 1 {
		return nil, fmt.Errorf("mlsearch: cannot resume a %d-jumble run from a single checkpoint (use ResumeManifest)", opt.Jumbles)
	}
	if opt.Resume != nil && opt.ResumeManifest != nil {
		return nil, fmt.Errorf("mlsearch: Resume and ResumeManifest are mutually exclusive")
	}
	switch opt.Transport {
	case Serial:
		return runSerialTransport(cfg, opt)
	case Local:
		return runLocalTransport(cfg, opt)
	case TCP:
		return runTCPTransport(cfg, opt)
	}
	return nil, fmt.Errorf("mlsearch: unknown transport %d", int(opt.Transport))
}

// runJumbles executes opt.Jumbles searches against dispatchers minted
// from src, the shared core of every transport's master side. Seeds
// advance by 2 per jumble from cfg.Seed (keeping them odd, §2.1). Up to
// MaxConcurrentJumbles searches run as goroutines, each in its own job
// lane through the shared foreman; per-jumble results are identical to
// the sequential schedule because every search's rounds remain a
// barrier within its own lane.
func runJumbles(src dispatcherSource, cfg Config, opt RunOptions) ([]*SearchResult, error) {
	seed := NormalizeSeed(cfg.Seed)
	configs := make([]Config, opt.Jumbles)
	resumes := make([]*Checkpoint, opt.Jumbles)
	for j := range configs {
		jcfg := cfg
		jcfg.Seed = seed + int64(2*j)
		jcfg.Jumble = j
		if opt.Resume != nil {
			// The checkpoint records which jumble and seed it was; a
			// resumed jumble 3 must not be relabeled 0.
			jcfg.Seed = opt.Resume.Seed
			jcfg.Jumble = opt.Resume.Jumble
			resumes[j] = opt.Resume
		} else if opt.ResumeManifest != nil {
			if cp, ok := opt.ResumeManifest.Checkpoint(j); ok {
				jcfg.Seed = cp.Seed
				jcfg.Jumble = cp.Jumble
				resumes[j] = &cp
			}
		}
		configs[j] = jcfg
	}

	runOne := func(j int) (*SearchResult, error) {
		disp, err := src.NewDispatcher()
		if err != nil {
			return nil, err
		}
		s, err := NewSearch(configs[j], disp)
		if err != nil {
			return nil, err
		}
		s.Stop = opt.Stop
		// Callbacks report the jumble's own index, not the loop counter
		// (they differ on resumed runs).
		idx := configs[j].Jumble
		if opt.Progress != nil {
			s.Progress = func(e ProgressEvent) { opt.Progress(idx, e) }
		}
		if opt.OnCheckpoint != nil {
			s.OnCheckpoint = func(cp Checkpoint) { opt.OnCheckpoint(idx, cp) }
		}
		if cp := resumes[j]; cp != nil {
			return s.Resume(*cp)
		}
		return s.Run()
	}

	conc := opt.MaxConcurrentJumbles
	if conc < 1 {
		conc = opt.Workers
	}
	if conc < 1 {
		conc = 1
	}
	if conc > opt.Jumbles {
		conc = opt.Jumbles
	}

	out := make([]*SearchResult, opt.Jumbles)
	if conc == 1 {
		for j := range out {
			res, err := runOne(j)
			if err != nil {
				return nil, fmt.Errorf("mlsearch: jumble %d: %w", configs[j].Jumble, err)
			}
			out[j] = res
		}
		return out, nil
	}

	var wg sync.WaitGroup
	errs := make([]error, opt.Jumbles)
	sem := make(chan struct{}, conc)
	for j := range out {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[j], errs[j] = runOne(j)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mlsearch: jumble %d: %w", configs[j].Jumble, err)
		}
	}
	return out, nil
}

func runSerialTransport(cfg Config, opt RunOptions) (*RunOutcome, error) {
	disp, err := NewSerialDispatcher(cfg)
	if err != nil {
		return nil, err
	}
	// One evaluator, one goroutine: serial searches must not overlap.
	opt.MaxConcurrentJumbles = 1
	opt.Workers = 0
	results, err := runJumbles(fixedSource{d: disp}, cfg, opt)
	if err != nil {
		return nil, err
	}
	return &RunOutcome{Results: results}, nil
}

func runLocalTransport(cfg Config, opt RunOptions) (*RunOutcome, error) {
	if opt.Workers < 1 {
		return nil, fmt.Errorf("mlsearch: %d workers, need >= 1", opt.Workers)
	}
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	size := opt.Workers + 2
	if opt.WithMonitor {
		size++
	}
	world, err := comm.NewLocal(size)
	if err != nil {
		return nil, err
	}
	lay, err := DefaultLayout(size, opt.WithMonitor)
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, size)

	// Foreman.
	foremanOpt := opt.Foreman
	if foremanOpt.Obs == nil {
		foremanOpt.Obs = opt.Obs
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunForeman(world[lay.Foreman], lay, foremanOpt); err != nil {
			errs <- fmt.Errorf("foreman: %w", err)
		}
	}()

	// Monitor.
	outcome := &RunOutcome{}
	if opt.WithMonitor {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := RunMonitor(world[lay.Monitor], opt.MonitorOut, false)
			if err != nil {
				errs <- fmt.Errorf("monitor: %w", err)
				return
			}
			outcome.Monitor = stats
		}()
	}

	// Workers.
	for _, w := range lay.Workers {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			hooks := WorkerHooks{}
			if opt.WorkerHooks != nil {
				hooks = opt.WorkerHooks[rank]
			}
			hooks.SmoothMode = norm.SmoothMode
			if err := RunWorker(world[rank], lay, norm.Model, norm.Patterns, norm.Taxa, hooks); err != nil {
				errs <- fmt.Errorf("worker %d: %w", rank, err)
			}
		}(w)
	}

	// Master (this goroutine).
	results, masterErr := runMasterSide(world[lay.Master], lay, norm, opt)
	wg.Wait()
	close(errs)
	if masterErr != nil {
		return nil, masterErr
	}
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	outcome.Results = results
	return outcome, nil
}

// runMasterSide executes the master role over a communicator: run the
// jumbles through the foreman (each in its own job lane), then shut the
// world down.
func runMasterSide(c comm.Communicator, lay Layout, norm Config, opt RunOptions) ([]*SearchResult, error) {
	mux, err := NewJobMux(c, lay)
	if err != nil {
		return nil, err
	}
	defer func() { _ = mux.Shutdown() }()
	return runJumbles(mux, norm, opt)
}

// newInlineEvaluator builds the evaluator the foreman falls back to when
// the live worker set is empty (TCP degradation ladder, bottom rung).
func newInlineEvaluator(norm Config) (*Evaluator, error) {
	eng, err := likelihood.NewEngine(norm.Engine, norm.Model, norm.Patterns, likelihood.EngineOptions{})
	if err != nil {
		return nil, err
	}
	ev := NewEvaluator(eng, norm.Taxa)
	ev.SetSmoothMode(norm.SmoothMode)
	return ev, nil
}
