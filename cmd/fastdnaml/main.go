// Command fastdnaml infers maximum likelihood phylogenetic trees from a
// PHYLIP DNA alignment, reproducing the serial and parallel fastDNAml
// program of the paper. It runs serially by default, in parallel on one
// machine with -workers, or as the master of a distributed run with
// -listen (workers join with cmd/fdworker).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/fileio"
	"repro/internal/mlsearch"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/tree"
	"repro/internal/viewer"
)

func main() {
	var (
		inPath      = flag.String("in", "", "PHYLIP alignment (required)")
		jumbles     = flag.Int("jumbles", 1, "number of random taxon orderings to analyze")
		concJumbles = flag.Int("concurrent-jumbles", 0, "jumbles (or bootstrap replicates) run concurrently over the shared worker fleet (0 = min(jumbles, workers); results identical at any setting)")
		seed        = flag.Int64("seed", 1, "random seed (even seeds are adjusted, as in fastDNAml)")
		extent      = flag.Int("extent", 1, "vertices crossed in local rearrangements (paper tests: 5)")
		finalExtent = flag.Int("final-extent", 0, "vertices crossed in the final pass (0 = same as -extent)")
		ttratio     = flag.Float64("ttratio", 2.0, "F84 transition/transversion ratio")
		workers     = flag.Int("workers", 0, "parallel worker processes on this machine (0 = serial)")
		engine      = flag.String("engine", "", "likelihood backend: cached (default) or reference (direct recomputation, for cross-validation)")
		smoothMode  = flag.String("smooth-mode", "", "full-tree branch smoothing: sweep (sequential Newton, default) or gradient (simultaneous, linear-time all-branches gradient)")
		pipeline    = flag.Int("pipeline", 2, "tasks kept in flight per worker in parallel runs (1 = paper's one-task dispatch)")
		monitor     = flag.Bool("monitor", false, "attach the monitor process (parallel runs)")
		ratesPath   = flag.String("rates", "", "per-site rate file (dnarates output)")
		weightsPath = flag.String("weights", "", "per-site weight file")
		outPrefix   = flag.String("out", "", "output prefix for .trees/.best.tree/.consensus.tree files")
		progressOut = flag.String("progress-out", "", "append each adopted best tree to this file (for treeview)")
		listen      = flag.String("listen", "", "run as distributed master listening on this address")
		netWorkers  = flag.Int("net-workers", 0, "number of fdworker processes expected (with -listen)")
		taskTimeout = flag.Duration("task-timeout", 60*time.Second, "distributed runs: re-dispatch a task whose worker has not answered within this (0 disables)")
		quiet       = flag.Bool("quiet", false, "suppress per-jumble output")
		modelName   = flag.String("model", "F84", "substitution model: F84, JC69, K80, HKY85, GTR")
		gtrRates    = flag.String("gtr-rates", "", "six GTR exchangeabilities ac,ag,at,cg,ct,gt")
		kappa       = flag.Float64("kappa", 2.0, "transition rate multiplier for K80/HKY85")
		userTrees   = flag.String("usertrees", "", "evaluate and rank the trees in this file instead of searching")
		bootstrap   = flag.Int("bootstrap", 0, "run this many bootstrap replicates instead of a plain search")
		checkpoint  = flag.String("checkpoint", "", "write a restart file here after every taxon addition (one jumble; serial or -listen)")
		resume      = flag.String("resume", "", "resume a search from this restart file")
		adaptive    = flag.Bool("adaptive", false, "adapt the rearrangement extent to recent success (paper §5)")
		statusAddr  = flag.String("status-addr", "", "serve /metrics, /status, and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		benchJSON   = flag.String("bench-json", "", "write a BENCH_<run>.json report into this directory at end of run")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("fastdnaml", buildinfo.String())
		return
	}
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "fastdnaml: -in alignment required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*inPath, options{
		jumbles: *jumbles, concJumbles: *concJumbles, seed: *seed, extent: *extent, finalExtent: *finalExtent,
		ttratio: *ttratio, workers: *workers, engine: *engine, smoothMode: *smoothMode, pipeline: *pipeline, monitor: *monitor,
		ratesPath: *ratesPath, weightsPath: *weightsPath,
		outPrefix: *outPrefix, progressOut: *progressOut,
		listen: *listen, netWorkers: *netWorkers, taskTimeout: *taskTimeout, quiet: *quiet,
		modelName: *modelName, kappa: *kappa, gtrRates: *gtrRates,
		userTrees: *userTrees, bootstrap: *bootstrap,
		checkpoint: *checkpoint, resume: *resume, adaptive: *adaptive,
		statusAddr: *statusAddr, benchJSON: *benchJSON,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "fastdnaml:", err)
		os.Exit(1)
	}
}

type options struct {
	jumbles, extent, finalExtent, workers, netWorkers int
	concJumbles                                       int
	pipeline                                          int
	seed                                              int64
	taskTimeout                                       time.Duration
	ttratio, kappa                                    float64
	monitor, quiet                                    bool
	ratesPath, weightsPath, outPrefix, progressOut    string
	listen, modelName, gtrRates                       string
	engine, smoothMode                                string
	userTrees                                         string
	bootstrap                                         int
	checkpoint, resume                                string
	adaptive                                          bool
	statusAddr, benchJSON                             string

	// observer is created when -status-addr or -bench-json asks for
	// instrumentation; start stamps the run's wall clock and runName
	// names the BENCH_<run>.json file.
	observer *mlsearch.RunObserver
	start    time.Time
	runName  string
}

func run(inPath string, o options) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	a, err := seq.ReadPhylip(f)
	f.Close()
	if err != nil {
		return err
	}
	var rates, weights []float64
	if o.ratesPath != "" {
		if rates, err = fileio.ReadFloatsFile(o.ratesPath); err != nil {
			return err
		}
	}
	if o.weightsPath != "" {
		if weights, err = fileio.ReadFloatsFile(o.weightsPath); err != nil {
			return err
		}
	}

	var progressFile *os.File
	if o.progressOut != "" {
		progressFile, err = os.Create(o.progressOut)
		if err != nil {
			return err
		}
		defer progressFile.Close()
	}
	// Concurrent jumbles report progress from several goroutines; the
	// mutex keeps the file writes and console lines whole.
	var progressMu sync.Mutex
	progress := func(j int, e mlsearch.ProgressEvent) {
		progressMu.Lock()
		defer progressMu.Unlock()
		if progressFile != nil {
			fmt.Fprintln(progressFile, e.BestNewick)
		}
		if !o.quiet {
			fmt.Printf("jumble %d: %-9s %3d taxa  lnL %.4f\n", j+1, e.Kind, e.TaxaInTree, e.BestLnL)
		}
	}

	gtr, err := parseGTRRates(o.gtrRates)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM stop the search at its next round boundary; the
	// checkpoint paths then flush a current restart file and exit 0.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "fastdnaml: signal received; stopping at the next round boundary (repeat to kill)")
		signal.Stop(sigc)
		close(stop)
	}()
	opt := core.Options{
		Stop:                 stop,
		ModelName:            o.modelName,
		TTRatio:              o.ttratio,
		Kappa:                o.kappa,
		GTRRates:             gtr,
		Jumbles:              o.jumbles,
		MaxConcurrentJumbles: o.concJumbles,
		Seed:                 o.seed,
		RearrangeExtent:      o.extent,
		FinalExtent:          o.finalExtent,
		AdaptiveExtent:       o.adaptive,
		Workers:              o.workers,
		Engine:               o.engine,
		SmoothMode:           o.smoothMode,
		Pipeline:             o.pipeline,
		WithMonitor:          o.monitor,
		MonitorOut:           obs.NewLockedWriter(os.Stderr),
		SiteRates:            rates,
		Weights:              weights,
		Progress:             progress,
	}

	o.start = time.Now()
	o.runName = strings.TrimSuffix(filepath.Base(inPath), filepath.Ext(inPath)) +
		"_s" + strconv.FormatInt(o.seed, 10)
	if o.statusAddr != "" || o.benchJSON != "" {
		o.observer = mlsearch.NewRunObserver(obs.NewRegistry(), obs.NewBus())
		opt.Obs = o.observer
		if o.statusAddr != "" {
			srv, err := obs.NewStatusServer(obs.StatusOptions{
				Addr:     o.statusAddr,
				Registry: o.observer.Registry(),
				Snapshot: func() any { return o.observer.Snapshot() },
			})
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("status server on http://%s (/metrics, /status, /debug/pprof)\n", srv.Addr())
		}
	}

	switch {
	case o.userTrees != "":
		return runUserTrees(a, opt, o)
	case o.bootstrap > 0:
		return runBootstrap(a, opt, o)
	case o.listen != "":
		return runDistributed(a, opt, o)
	case o.checkpoint != "" || o.resume != "":
		return runCheckpointed(a, opt, o)
	}

	inf, err := core.Infer(a, opt)
	if err != nil {
		return finishInterrupted(err, nil, o)
	}
	return report(inf, a, o)
}

// finishInterrupted turns a signal-stop into a clean exit: flush the
// restart manifest if one is being recorded, tell the user how to
// resume, and return nil so the process exits 0. Any other error passes
// through unchanged.
func finishInterrupted(err error, rec *mlsearch.ManifestRecorder, o options) error {
	if !errors.Is(err, mlsearch.ErrStopped) {
		return err
	}
	if rec != nil {
		if ferr := rec.Flush(); ferr != nil {
			return fmt.Errorf("interrupted, and the final checkpoint failed: %w", ferr)
		}
	}
	switch {
	case o.checkpoint != "":
		fmt.Printf("interrupted; restart file %s is current — resume with -resume %s\n", o.checkpoint, o.checkpoint)
	case o.resume != "":
		fmt.Printf("interrupted; resume again with -resume %s\n", o.resume)
	default:
		fmt.Println("interrupted (run with -checkpoint to make interrupted searches resumable)")
	}
	return nil
}

// parseGTRRates parses "ac,ag,at,cg,ct,gt" (empty = zero value).
func parseGTRRates(s string) (model.GTRRates, error) {
	var r model.GTRRates
	if s == "" {
		return r, nil
	}
	fields := strings.Split(s, ",")
	if len(fields) != 6 {
		return r, fmt.Errorf("-gtr-rates needs 6 comma-separated values, got %d", len(fields))
	}
	vals := make([]float64, 6)
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return r, fmt.Errorf("-gtr-rates: %w", err)
		}
		vals[i] = v
	}
	r.AC, r.AG, r.AT, r.CG, r.CT, r.GT = vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
	return r, nil
}

// runUserTrees evaluates and ranks given topologies (fastDNAml's
// user-tree mode).
func runUserTrees(a *seq.Alignment, opt core.Options, o options) error {
	cfg, _, err := core.Prepare(a, opt)
	if err != nil {
		return err
	}
	trees, err := fileio.ReadTreesFile(o.userTrees, a.Names)
	if err != nil {
		return err
	}
	ranked, err := mlsearch.KishinoHasegawa(cfg, trees)
	if err != nil {
		return err
	}
	fmt.Printf("%d user trees, best first (Kishino-Hasegawa test):\n", len(ranked))
	var lines []string
	for rank, r := range ranked {
		verdict := "best"
		if r.Diff != 0 {
			verdict = "not significantly worse"
			if r.SignificantlyWorse {
				verdict = "SIGNIFICANTLY WORSE (5% level)"
			}
		}
		fmt.Printf("%3d. input tree %d  lnL %.4f  diff %.4f  sd %.4f  %s\n",
			rank+1, r.Index+1, r.LnL, r.Diff, r.SD, verdict)
		lines = append(lines, r.Newick)
	}
	if o.outPrefix != "" {
		if err := fileio.WriteLines(o.outPrefix+".ranked.trees", lines); err != nil {
			return err
		}
		fmt.Printf("wrote %s.ranked.trees (optimized branch lengths)\n", o.outPrefix)
	}
	return nil
}

// runBootstrap resamples columns and reports split support.
func runBootstrap(a *seq.Alignment, opt core.Options, o options) error {
	fmt.Printf("bootstrap: %d replicates\n", o.bootstrap)
	res, err := core.Bootstrap(a, opt, o.bootstrap)
	if err != nil {
		return finishInterrupted(err, nil, o)
	}
	fmt.Printf("\nbootstrap consensus (%d splits retained):\n%s\n",
		len(res.Consensus.Support), res.Consensus.Tree.Newick())
	fmt.Println("\nsplit support (bootstrap proportions):")
	for _, f := range sortedSupports(res.Consensus.Support) {
		fmt.Printf("  %5.1f%%\n", 100*f)
	}
	if o.outPrefix != "" {
		var lines []string
		for _, tr := range res.Trees {
			lines = append(lines, tr.Newick())
		}
		if err := fileio.WriteLines(o.outPrefix+".boot.trees", lines); err != nil {
			return err
		}
		if err := fileio.WriteLines(o.outPrefix+".boot.consensus.tree", []string{res.Consensus.Tree.Newick()}); err != nil {
			return err
		}
		fmt.Printf("wrote %s.boot.trees and %s.boot.consensus.tree\n", o.outPrefix, o.outPrefix)
	}
	return nil
}

func sortedSupports(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// runCheckpointed runs a checkpointed search (any number of jumbles),
// writing a restart file after each completed addition, or resumes from
// one. Single-jumble runs write the flat checkpoint format; multi-jumble
// runs write a manifest with one block per jumble. Serial by default,
// parallel with -workers.
func runCheckpointed(a *seq.Alignment, opt core.Options, o options) error {
	cfg, opt, err := core.Prepare(a, opt)
	if err != nil {
		return err
	}
	runOpt := mlsearch.RunOptions{
		Transport:            mlsearch.Serial,
		Jumbles:              o.jumbles,
		MaxConcurrentJumbles: o.concJumbles,
		Progress:             opt.Progress,
		Obs:                  opt.Obs,
	}
	if o.workers > 0 {
		runOpt.Transport = mlsearch.Local
		runOpt.Workers = o.workers
		runOpt.WithMonitor = o.monitor
		runOpt.MonitorOut = opt.MonitorOut
		runOpt.Foreman = mlsearch.ForemanOptions{Pipeline: o.pipeline}
	}
	runOpt.Stop = opt.Stop
	rec, err := wireRestart(&runOpt, o)
	if err != nil {
		return err
	}
	out, err := mlsearch.Run(cfg, runOpt)
	if err != nil {
		return finishInterrupted(err, rec, o)
	}
	inf, err := inferenceFromResults(a, cfg.Taxa, out, opt)
	if err != nil {
		return err
	}
	return report(inf, a, o)
}

// wireRestart wires -resume and -checkpoint into runOpt, sniffing the
// restart file's format: a flat checkpoint resumes one jumble, a
// manifest resumes a multi-jumble run (adopting the manifest's jumble
// count when -jumbles was left at its default). It returns the manifest
// recorder when one is writing, so an interrupted run can flush it.
func wireRestart(runOpt *mlsearch.RunOptions, o options) (*mlsearch.ManifestRecorder, error) {
	var prior *mlsearch.Manifest
	if o.resume != "" {
		cp, m, err := mlsearch.LoadResume(o.resume)
		if err != nil {
			return nil, err
		}
		if m != nil {
			if runOpt.Jumbles > 1 && runOpt.Jumbles != m.Jumbles {
				return nil, fmt.Errorf("-jumbles %d does not match the manifest's %d jumbles", runOpt.Jumbles, m.Jumbles)
			}
			runOpt.Jumbles = m.Jumbles
			runOpt.ResumeManifest = m
			prior = m
			done := 0
			for j := 0; j < m.Jumbles; j++ {
				if cp, ok := m.Checkpoint(j); ok && cp.Phase == mlsearch.PhaseDone {
					done++
				}
			}
			fmt.Printf("resuming manifest: %d of %d jumbles done\n", done, m.Jumbles)
		} else {
			fmt.Printf("resuming: phase %s, %d of %d taxa in tree\n", cp.Phase, cp.NextIndex, len(cp.Order))
			runOpt.Resume = cp
		}
	}
	if o.checkpoint != "" {
		if runOpt.Jumbles > 1 {
			rec := mlsearch.NewManifestRecorder(o.checkpoint, runOpt.Jumbles, prior)
			runOpt.OnCheckpoint = func(_ int, cp mlsearch.Checkpoint) {
				if err := rec.Record(cp); err != nil {
					fmt.Fprintln(os.Stderr, "fastdnaml: checkpoint:", err)
				}
			}
			return rec, nil
		}
		runOpt.OnCheckpoint = func(_ int, cp mlsearch.Checkpoint) { writeCheckpointFile(o.checkpoint, cp) }
	}
	return nil, nil
}

// runDistributed hosts the elastic TCP master; workers join at any time
// via cmd/fdworker. -net-workers is only a start barrier: the master
// waits for that many workers before the first round, then tolerates
// joins and departures for the rest of the run (evaluating inline if the
// worker set ever empties).
func runDistributed(a *seq.Alignment, opt core.Options, o options) error {
	cfg, opt, err := core.Prepare(a, opt)
	if err != nil {
		return err
	}
	var phylip strings.Builder
	if err := seq.WritePhylip(&phylip, a, 0); err != nil {
		return err
	}
	runOpt := mlsearch.RunOptions{
		Transport:            mlsearch.TCP,
		Addr:                 o.listen,
		Workers:              o.netWorkers,
		WithMonitor:          o.monitor,
		Jumbles:              o.jumbles,
		MaxConcurrentJumbles: o.concJumbles,
		MonitorOut:           obs.NewLockedWriter(os.Stderr),
		Foreman:              mlsearch.ForemanOptions{TaskTimeout: o.taskTimeout, Pipeline: o.pipeline},
		Obs:                  opt.Obs,
		Bundle: mlsearch.DataBundle{
			PhylipText: []byte(phylip.String()),
			TTRatio:    opt.TTRatio,
			SiteRates:  opt.SiteRates,
			Weights:    opt.Weights,
			Engine:     cfg.Engine,
			SmoothMode: cfg.SmoothMode,
		},
		Progress: opt.Progress,
		OnListen: func(addr net.Addr) {
			fmt.Printf("listening on %s; workers join with:\n", addr)
			fmt.Printf("  fdworker -connect %s\n", addr)
			if o.netWorkers > 0 {
				fmt.Printf("waiting for %d worker(s) before starting\n", o.netWorkers)
			}
		},
		OnMember: func(rank int, joined bool) {
			if o.quiet {
				return
			}
			if joined {
				fmt.Printf("worker %d joined\n", rank)
			} else {
				fmt.Printf("worker %d left\n", rank)
			}
		},
	}
	runOpt.Stop = opt.Stop
	rec, err := wireRestart(&runOpt, o)
	if err != nil {
		return err
	}
	out, err := mlsearch.Run(cfg, runOpt)
	if err != nil {
		return finishInterrupted(err, rec, o)
	}
	// Repackage as an Inference for uniform reporting.
	inf, err := inferenceFromResults(a, cfg.Taxa, out, opt)
	if err != nil {
		return err
	}
	return report(inf, a, o)
}

// writeCheckpointFile writes a restart file, logging failures without
// aborting the run.
func writeCheckpointFile(path string, cp mlsearch.Checkpoint) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fastdnaml: checkpoint:", err)
		return
	}
	if err := mlsearch.WriteCheckpoint(f, cp); err != nil {
		fmt.Fprintln(os.Stderr, "fastdnaml: checkpoint:", err)
	}
	f.Close()
}

func inferenceFromResults(a *seq.Alignment, taxa []string, out *mlsearch.RunOutcome, opt core.Options) (*core.Inference, error) {
	inf := &core.Inference{Monitor: out.Monitor}
	for _, res := range out.Results {
		tr, err := tree.ParseNewick(res.BestNewick, taxa)
		if err != nil {
			return nil, err
		}
		inf.Jumbles = append(inf.Jumbles, core.JumbleResult{
			// The search carries the seed it ran with; re-deriving it
			// from the slice index mislabels resumed runs.
			Seed: res.Seed, Tree: tr, Newick: res.BestNewick, LnL: res.LnL, Search: res,
		})
	}
	best := &inf.Jumbles[0]
	for i := range inf.Jumbles {
		if inf.Jumbles[i].LnL > best.LnL {
			best = &inf.Jumbles[i]
		}
	}
	inf.Best = best
	return inf, nil
}

func report(inf *core.Inference, a *seq.Alignment, o options) error {
	fmt.Println()
	for i, j := range inf.Jumbles {
		marker := " "
		if &inf.Jumbles[i] == inf.Best {
			marker = "*"
		}
		fmt.Printf("%s jumble %d (seed %d): lnL %.4f\n", marker, i+1, j.Seed, j.LnL)
	}
	fmt.Printf("\nbest tree (lnL %.4f):\n%s\n", inf.Best.LnL, inf.Best.Newick)
	if ascii, err := viewer.ASCII(inf.Best.Tree, viewer.ASCIIOptions{Width: 78}); err == nil {
		fmt.Println()
		fmt.Print(ascii)
	}
	if inf.Consensus != nil {
		fmt.Printf("\nmajority rule consensus (%d trees):\n%s\n", len(inf.Jumbles), inf.Consensus.Tree.Newick())
	}
	if o.outPrefix != "" {
		var lines []string
		for _, j := range inf.Jumbles {
			lines = append(lines, j.Newick)
		}
		if err := fileio.WriteLines(o.outPrefix+".trees", lines); err != nil {
			return err
		}
		if err := fileio.WriteLines(o.outPrefix+".best.tree", []string{inf.Best.Newick}); err != nil {
			return err
		}
		if inf.Consensus != nil {
			if err := fileio.WriteLines(o.outPrefix+".consensus.tree", []string{inf.Consensus.Tree.Newick()}); err != nil {
				return err
			}
		}
		fmt.Printf("\nwrote %s.trees and %s.best.tree\n", o.outPrefix, o.outPrefix)
	}
	return writeBenchReport(inf, o)
}

// writeBenchReport dumps a machine-readable BENCH_<run>.json into the
// -bench-json directory: per-jumble outcomes, monitor counters when the
// monitor ran, and the observer's run snapshot when one was attached.
func writeBenchReport(inf *core.Inference, o options) error {
	if o.benchJSON == "" {
		return nil
	}
	totals := map[string]float64{
		"jumbles":  float64(len(inf.Jumbles)),
		"best_lnl": inf.Best.LnL,
		"pipeline": float64(o.pipeline),
	}
	type jumbleBench struct {
		Seed  int64   `json:"seed"`
		LnL   float64 `json:"lnl"`
		Tasks int     `json:"tasks"`
		Ops   uint64  `json:"ops"`
	}
	var jb []jumbleBench
	for _, j := range inf.Jumbles {
		b := jumbleBench{Seed: j.Seed, LnL: j.LnL}
		if j.Search != nil {
			b.Tasks = j.Search.TotalTasks
			b.Ops = j.Search.TotalOps
			totals["tasks"] += float64(b.Tasks)
			totals["ops"] += float64(b.Ops)
		}
		jb = append(jb, b)
	}
	details := map[string]any{"jumbles": jb}
	if m := inf.Monitor; m != nil {
		details["monitor"] = map[string]int{
			"rounds": m.Rounds, "dispatches": m.Dispatches, "results": m.Results,
			"deaths": len(m.Deaths), "revivals": len(m.Revivals),
			"joins": m.Joins, "leaves": m.Leaves, "inline": m.Inline,
		}
	}
	if o.observer != nil {
		details["run"] = o.observer.Snapshot()
	}
	path, err := obs.WriteBench(o.benchJSON, obs.BenchReport{
		Run:       o.runName,
		StartedAt: o.start,
		Totals:    totals,
		Details:   details,
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
