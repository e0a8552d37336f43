package mlsearch

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/likelihood"
)

// Distributed (TCP) runtime with elastic membership. One operating
// system process hosts rank 0 (the TCP router and the master role) plus
// the foreman and optional monitor as loopback-connected ranks; worker
// processes anywhere on the network join with cmd/fdworker, carrying no
// pre-assigned identity: the join handshake assigns each a fresh rank
// and delivers the data bundle. Workers may join or leave at any point,
// including mid-round — the paper's fault-tolerant dispatch (§2.2) is
// what makes this safe, and it is the property the planned
// Condor/screensaver workers (§5) would rely on.

// runTCPTransport hosts the distributed run for Run.
func runTCPTransport(cfg Config, opt RunOptions) (*RunOutcome, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("mlsearch: negative worker barrier %d", opt.Workers)
	}
	if len(opt.Bundle.PhylipText) == 0 {
		return nil, fmt.Errorf("mlsearch: tcp run needs a data bundle for joining workers")
	}
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	// Workers evaluate with the run's engine backend unless the bundle
	// already requests one explicitly.
	if opt.Bundle.Engine == "" {
		opt.Bundle.Engine = norm.Engine
	}
	lay := ElasticLayout(opt.WithMonitor)

	// The foreman always gets an inline evaluator: a TCP run must
	// complete even if every worker disappears (degradation ladder).
	foremanOpt := opt.Foreman
	if foremanOpt.Inline == nil {
		inline, err := newInlineEvaluator(norm)
		if err != nil {
			return nil, err
		}
		foremanOpt.Inline = inline
	}
	if foremanOpt.Obs == nil {
		foremanOpt.Obs = opt.Obs
	}

	// Join barrier: the master waits for opt.Workers joins before
	// starting the search (0 = start immediately).
	var (
		joinMu    sync.Mutex
		joined    int
		joinCond  = sync.NewCond(&joinMu)
		barrierOK = opt.Workers == 0
	)
	onJoin := func(rank int) {
		joinMu.Lock()
		joined++
		if joined >= opt.Workers {
			barrierOK = true
		}
		joinCond.Broadcast()
		joinMu.Unlock()
		if opt.OnMember != nil {
			opt.OnMember(rank, true)
		}
	}
	onLeave := func(rank int) {
		if opt.OnMember != nil {
			opt.OnMember(rank, false)
		}
	}

	router, err := comm.NewElasticTCPRouter(comm.RouterConfig{
		Addr:         opt.Addr,
		FirstDynamic: lay.FirstDynamicRank(),
		Welcome:      marshalWelcome(lay, opt.Bundle),
		NotifyRank:   lay.Foreman,
		OnJoin:       onJoin,
		OnLeave:      onLeave,
		Obs:          foremanOpt.Obs.Registry(),
	})
	if err != nil {
		return nil, err
	}
	defer router.Close()
	addr, _ := comm.ListenAddr(router)

	// Loopback ranks for the role processes. The monitor attaches before
	// the foreman: the foreman's attach flushes any join notifications
	// that predate it, and handling those emits monitor events that
	// would otherwise be dropped. Workers that dial even earlier (e.g.
	// reconnecting ones racing a master restart) are queued by the
	// router until the foreman is here.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	outcome := &RunOutcome{}
	if opt.WithMonitor {
		monitorComm, err := comm.DialTCPRole(addr.String(), lay.Monitor)
		if err != nil {
			return nil, fmt.Errorf("mlsearch: monitor loopback: %w", err)
		}
		defer monitorComm.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := RunMonitor(monitorComm, opt.MonitorOut, false)
			if err != nil {
				errs <- fmt.Errorf("monitor: %w", err)
				return
			}
			outcome.Monitor = stats
		}()
	}

	foremanComm, err := comm.DialTCPRole(addr.String(), lay.Foreman)
	if err != nil {
		return nil, fmt.Errorf("mlsearch: foreman loopback: %w", err)
	}
	defer foremanComm.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunForeman(foremanComm, lay, foremanOpt); err != nil {
			errs <- fmt.Errorf("foreman: %w", err)
		}
	}()

	if opt.OnListen != nil && addr != nil {
		opt.OnListen(addr)
	}

	// Wait out the join barrier.
	joinMu.Lock()
	for !barrierOK {
		joinCond.Wait()
	}
	joinMu.Unlock()

	results, masterErr := runMasterSide(router, lay, norm, opt)
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

// ReconnectPolicy governs a worker's jittered exponential backoff when
// its connection to the master drops (or cannot be established yet).
// The zero value reconnects forever with the defaults — the right
// behaviour for a volunteer worker that should survive master restarts.
type ReconnectPolicy struct {
	// Disabled turns reconnection off: the worker serves one connection
	// and returns.
	Disabled bool
	// Base is the first backoff delay. Default 250ms.
	Base time.Duration
	// Cap bounds the backoff. Default 15s.
	Cap time.Duration
	// MaxAttempts bounds consecutive failed connection attempts; 0
	// retries forever. The counter resets after a successful join.
	MaxAttempts int
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.Base <= 0 {
		p.Base = 250 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 15 * time.Second
	}
	return p
}

// backoff returns the jittered delay before attempt n (0-based):
// uniformly random in (0, min(Cap, Base*2^n)], the "full jitter"
// scheme that avoids reconnection stampedes after a master restart.
func (p ReconnectPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.Base
	for i := 0; i < n && d < p.Cap; i++ {
		d *= 2
	}
	if d > p.Cap {
		d = p.Cap
	}
	return time.Duration(1 + rng.Int63n(int64(d)))
}

// ParseReconnectPolicy parses the CLI form of a policy: "on" (defaults),
// "off", or comma-separated settings like "base=500ms,cap=30s,max=10".
func ParseReconnectPolicy(s string) (ReconnectPolicy, error) {
	var p ReconnectPolicy
	switch strings.TrimSpace(s) {
	case "", "on":
		return p, nil
	case "off":
		p.Disabled = true
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return p, fmt.Errorf("mlsearch: bad reconnect setting %q (want key=value)", part)
		}
		var err error
		switch key {
		case "base":
			p.Base, err = time.ParseDuration(val)
		case "cap":
			p.Cap, err = time.ParseDuration(val)
		case "max":
			_, err = fmt.Sscanf(val, "%d", &p.MaxAttempts)
		default:
			return p, fmt.Errorf("mlsearch: unknown reconnect setting %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("mlsearch: bad reconnect %s: %w", key, err)
		}
	}
	return p, nil
}

// ServeElastic is the distributed worker's entry point: join the master
// at addr with no pre-assigned identity, receive a rank and the data
// bundle in the handshake, and serve tasks until shutdown. When the
// connection drops — a network fault or a master restart — the worker
// reconnects under the policy's jittered exponential backoff and is
// assigned a fresh rank, resuming from the master's checkpoint state.
//
// Two kinds of error end the worker at once instead: a deterministic
// evaluation failure (FatalEvalError) and a welcome or data bundle this
// worker cannot use (ErrUnusableBundle). The master hands the same
// bundle to every join, so a rejoin would only fail the same way again.
func ServeElastic(addr string, hooks WorkerHooks, policy ReconnectPolicy) error {
	policy = policy.withDefaults()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	failures := 0
	for {
		c, welcome, err := comm.JoinTCP(addr)
		if err == nil {
			failures = 0
			err = serveConnection(c, welcome, hooks)
			c.Close()
			if err == nil {
				return nil // clean shutdown from the foreman
			}
			if FatalEvalError(err) || errors.Is(err, ErrUnusableBundle) {
				// The same task or bundle would fail identically after
				// a rejoin, so reconnecting only loops. Surface it.
				return err
			}
		}
		if policy.Disabled {
			return err
		}
		failures++
		if policy.MaxAttempts > 0 && failures >= policy.MaxAttempts {
			return fmt.Errorf("mlsearch: giving up after %d attempts: %w", failures, err)
		}
		time.Sleep(policy.backoff(failures-1, rng))
	}
}

// ErrUnusableBundle marks a join whose welcome payload or data bundle
// this worker cannot use: it does not decode, its alignment does not
// build, or it names an engine this binary does not have.
var ErrUnusableBundle = errors.New("mlsearch: unusable welcome or data bundle")

// serveConnection runs one joined worker session to completion. A nil
// return means the foreman sent shutdown. An error wrapping
// ErrUnusableBundle means the session could not start; any other error
// means it ended abnormally (usually a dropped connection) and the
// caller may reconnect.
func serveConnection(c comm.Communicator, welcome []byte, hooks WorkerHooks) error {
	lay, bundle, err := unmarshalWelcome(welcome)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnusableBundle, err)
	}
	m, pat, taxa, err := bundle.Build()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnusableBundle, err)
	}
	if !hooks.EngineSet {
		// The engine backend: workers adopt the master's choice unless
		// started with an explicit -engine override.
		hooks.Engine = bundle.Engine
	}
	if _, err := likelihood.ParseEngine(hooks.Engine); err != nil {
		return fmt.Errorf("%w: %w", ErrUnusableBundle, err)
	}
	if !hooks.SmoothModeSet {
		// And the smoothing algorithm, overridable via -smooth-mode.
		hooks.SmoothMode = bundle.SmoothMode
	}
	if hooks.OnAttach != nil {
		hooks.OnAttach(c)
	}
	return RunWorker(c, lay, m, pat, taxa, hooks)
}
