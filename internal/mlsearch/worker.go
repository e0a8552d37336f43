package mlsearch

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/likelihood"
	"repro/internal/seq"

	"repro/internal/model"
)

// The worker (paper §2.2): "worker processes that, in parallel, calculate
// branch lengths for a tree topology and the likelihood value for the
// tree. The worker processes communicate only with the foreman process."

// WorkerHooks allow tests (and the fault injection example) to perturb a
// worker's behaviour.
type WorkerHooks struct {
	// BeforeReply, when non-nil, runs after evaluation and before the
	// result is sent. Returning false drops the reply (simulating a
	// crashed or stalled worker); the foreman's timeout machinery must
	// then recover.
	BeforeReply func(task Task, result Result) bool
	// OnAttach, when non-nil, receives the worker's communicator right
	// after it connects and learns its rank. The chaos tests use it to
	// sever a live connection from outside (simulating a SIGKILL).
	OnAttach func(c comm.Communicator)
	// Obs, when non-nil, receives the worker's serve-loop
	// instrumentation: tasks served, evaluation latency, engine cache
	// counters, reconnects.
	Obs *WorkerObserver
	// Engine names the likelihood backend the worker builds (see
	// likelihood.Engines). Empty means likelihood.DefaultEngine; TCP
	// workers default to the engine the master's data bundle requests
	// unless the hook was set explicitly (see EngineSet).
	Engine string
	// EngineSet marks Engine as an explicit per-worker override, so a
	// worker can be forced to a backend different from the bundle's.
	EngineSet bool
	// SmoothMode selects the full-smoothing algorithm for this worker's
	// evaluator (see Config.SmoothMode). TCP workers default to the mode
	// the master's data bundle requests unless the hook was set
	// explicitly (see SmoothModeSet).
	SmoothMode likelihood.SmoothMode
	// SmoothModeSet marks SmoothMode as an explicit per-worker override.
	SmoothModeSet bool
}

// RunWorker executes the worker loop: receive a task from the foreman,
// evaluate it, send the result back, until a shutdown message arrives.
func RunWorker(c comm.Communicator, lay Layout, m model.Model, pat *seq.Patterns, taxa []string, hooks WorkerHooks) error {
	eng, err := likelihood.NewEngine(hooks.Engine, m, pat, likelihood.EngineOptions{})
	if err != nil {
		return err
	}
	defer likelihood.CloseEngine(eng)
	ev := NewEvaluator(eng, taxa)
	ev.SetSmoothMode(hooks.SmoothMode)
	hooks.Obs.Attached(c.Rank())
	for {
		msg, err := c.Recv(comm.AnySource, comm.AnyTag)
		if err != nil {
			return fmt.Errorf("mlsearch: worker %d receive: %w", c.Rank(), err)
		}
		switch msg.Tag {
		case comm.TagShutdown:
			// Acknowledge so the foreman knows the shutdown was delivered
			// before the transport is torn down. Best effort: the route
			// may already be gone.
			_ = c.Send(lay.Foreman, comm.TagShutdown, nil)
			return nil
		case comm.TagTask:
			task, err := UnmarshalTask(msg.Data)
			if err != nil {
				return err
			}
			comm.PutBuf(msg.Data) // decoded (strings copied); recycle
			res, err := ev.Evaluate(task)
			if err != nil {
				return fmt.Errorf("mlsearch: worker %d: %w", c.Rank(), err)
			}
			res.Worker = int32(c.Rank())
			hooks.Obs.Served(res)
			if hooks.BeforeReply != nil && !hooks.BeforeReply(task, res) {
				continue
			}
			buf := MarshalResult(res)
			err = c.Send(lay.Foreman, comm.TagResult, buf)
			comm.PutBuf(buf)
			if err != nil {
				return fmt.Errorf("mlsearch: worker %d send: %w", c.Rank(), err)
			}
		default:
			return fmt.Errorf("mlsearch: worker %d got unexpected tag %d", c.Rank(), msg.Tag)
		}
	}
}
