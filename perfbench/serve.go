package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tree"
)

// The serve workload drives an in-process fastdnamld (serve.NewServer
// behind httptest) with key auth on and two tenants, each submitting
// its own alignment so both of the default fleet's pod slots stay warm.
// Load is open loop: one generator goroutine sends on a seeded, evenly
// spaced schedule over one HTTP connection, and one poller watches the
// jobs over a second.

// serverSetups is how many times a phase builds and warms a server;
// setup_s reports the median.
const serverSetups = 5

// dupEvery makes one submission in dupEvery a duplicate of an earlier
// completed spec (served from the result store).
const dupEvery = 4

// drainTimeout bounds how long a phase waits for its last jobs.
const drainTimeout = 90 * time.Second

// arrival is one scheduled submission.
type arrival struct {
	// At is the send time, relative to the start of the load.
	At     time.Duration
	Tenant int
	// Dup repeats an earlier completed spec of the tenant, chosen by
	// Pick among those completed at send time.
	Dup  bool
	Pick uint32
	// Seed is a fresh submission's search seed, unique within the run
	// (0 for a duplicate, which takes its original's seed).
	Seed int64
}

// arrivals draws the seeded open-loop schedule: one submission every
// 1/rate seconds for duration d, each delayed by a seeded jitter of up
// to half an interval. Even spacing keeps the load steady from seed to
// seed; Poisson bursts at this run length made the tail latency depend
// more on the schedule than on the server. Exactly one submission in
// dupEvery, at seeded positions, is a duplicate. The k-th fresh
// submission goes to tenant k mod 2 and searches with seed
// 2(firstFreshSeed+k)+1 whatever the workload seed, so every run of a
// given length searches the same set of specs, split evenly over the
// pods; the seed decides when each is sent and which specs repeat.
func arrivals(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for float64(n)/rate < d.Seconds() {
		n++
	}
	dup := map[int]bool{}
	for _, i := range rng.Perm(n)[:n/dupEvery] {
		dup[i] = true
	}
	out := make([]arrival, 0, n)
	fresh := 0
	for i := 0; i < n; i++ {
		a := arrival{At: time.Duration((float64(i) + rng.Float64()/2) / rate * float64(time.Second))}
		if dup[i] {
			a.Dup, a.Tenant, a.Pick = true, rng.Intn(2), rng.Uint32()
		} else {
			a.Tenant = fresh % 2
			a.Seed = 2*(firstFreshSeed+int64(fresh)) + 1 // odd: seeds are normalized to odd
			fresh++
		}
		out = append(out, a)
	}
	return out
}

// firstFreshSeed keeps fresh search seeds clear of the warm-up seed.
const firstFreshSeed = 1000

// buildDir holds the servers' data directories while a run lasts; it
// is the benchmark's build directory, relative to the working directory.
const buildDir = ".bench_build"

// warmSeed is the search seed of each tenant's warm-up job.
const warmSeed = 1

// tenantInput is one tenant's credential and alignment.
type tenantInput struct {
	Name, Key string
	Align     string
	Taxa      []string
}

// servePhase is what one server lifetime measured.
type servePhase struct {
	Setups    []float64
	JobLat    []float64 // fresh: scheduled send -> Finished
	Runs      []float64 // fresh: Started -> Finished
	Waits     []float64 // fresh: Submitted -> Started
	HitLat    []float64 // duplicate: send -> Finished
	Submits   []float64 // POST round trips
	Lateness  []float64 // generator: actual - scheduled send
	Completed int
	Span      time.Duration // load start -> last completion
	Attempted int
	Failures  []error
	Dups      int
	// Results maps arrival index -> fresh result, for the traced run's
	// faithfulness check.
	Results map[int]serve.JobResult
	// Metrics and Engine are the /metrics counters and the traced
	// engines' totals accrued during the load (set-up excluded).
	Metrics promSample
	Engine  engineTotals
	// Pods counts the pods the server created, warm-up included.
	Pods float64
}

// podWorkers is the default fleet's worker count: 2 pods of 2.
const podWorkers = 4

// runServeWorkload measures the serve workload. Untraced, the whole
// run is one load phase. Traced, the run splits into an untraced and a
// traced phase over the same schedule prefix, each on its own server;
// the traced phase's pods build their engines through the timing
// decorator.
func runServeWorkload(w workload, p pins, seed int64, seconds float64, traced bool) (*result, error) {
	var (
		tenants    []tenantInput
		gens, comp []float64
		inputs     []float64
		patterns   int
	)
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		tenants = tenants[:0]
		var g, c float64
		for i := range w.DataSeeds {
			ds, err := makeDataset(w, i, p.Inputs[inputKey(w, i)])
			if err != nil {
				return nil, err
			}
			g += ds.Generate.Seconds()
			c += ds.Compress.Seconds()
			patterns = ds.Cfg.Patterns.NumPatterns()
			name := fmt.Sprintf("tenant%d", i+1)
			tenants = append(tenants, tenantInput{Name: name, Key: "key-" + name, Align: string(ds.Phylip), Taxa: ds.Cfg.Taxa})
		}
		gens, comp = append(gens, g), append(comp, c)
		inputs = append(inputs, time.Since(start).Seconds())
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(buildDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	load := time.Duration(seconds * float64(time.Second))
	if traced {
		load /= 2
	}
	sched := arrivals(seed, w.Rate, load)
	res := &result{Metrics: newMetricSet()}
	account := func(ph *servePhase) {
		res.Attempted += ph.Attempted
		for _, err := range ph.Failures {
			res.fail(err)
		}
	}

	plain, err := runServePhase(filepath.Join(root, "plain"), tenants, sched, "")
	if err != nil {
		return nil, err
	}
	account(plain)
	if !traced {
		fresh := tailPercentile(plain.JobLat, 90)
		m := res.Metrics
		m.put("search_s", "s", median(plain.Runs))
		m.put("setup_s", "s", median(inputs)+median(plain.Setups))
		m.put("job_p50_s", "s", median(plain.JobLat))
		m.put("job_p90_s", "s", fresh.Value)
		m.put("hit_p50_ms", "ms", median(plain.HitLat)*1e3)
		m.put("jobs_per_s", "1/s", share(float64(plain.Completed), plain.Span.Seconds()))
		m.put("peak_rss_mb", "MB", peakRSSMB())
		res.Notes = append(res.Notes, fmt.Sprintf("fresh=%d (tail p%.1f) hits=%d", fresh.N, fresh.P, len(plain.HitLat)))
		return res, nil
	}

	tp, err := runServePhase(filepath.Join(root, "traced"), tenants, sched, tracedEngineName)
	if err != nil {
		return nil, err
	}
	account(tp)
	for i, a := range tp.Results {
		if b, ok := plain.Results[i]; ok && (a.BestNewick != b.BestNewick || a.BestLnL != b.BestLnL) {
			res.fail(fmt.Errorf("traced job %d differs from untraced: lnL %v vs %v", i, a.BestLnL, b.BestLnL))
		}
	}

	var runTotal float64
	for _, r := range tp.Runs {
		runTotal += r
	}
	l := newLayerMetrics()
	l.seq(median(gens), median(comp), patterns, median(inputs))
	eng := tp.Engine
	l.engine(eng, runTotal)
	eval := tp.Metrics.get(`fdml_task_phase_seconds_sum{phase="eval"}`)
	l.seconds("evaluator.self_s", eval-eng.Seconds(), runTotal)
	// The pods' dispatchers are internal to the server, so the search
	// layer's split is not observable here; its counts come from
	// /metrics.
	for _, name := range []string{"search.self_s", "search.add_s", "search.smooth_s", "search.rearrange_s", "search.final_s"} {
		l.seconds(name, 0, runTotal)
	}
	dispatched := tp.Metrics.get("fdml_dispatch_total")
	l.count("search.rounds", tp.Metrics.get("fdml_rounds_total"))
	l.count("search.tasks", dispatched+tp.Metrics.get("fdml_inline_total"))
	l.count("search.gen_bytes", 0)
	l.foreman(tp.Metrics, runTotal, int(dispatched), podWorkers, tp.Span.Seconds())
	hits := tp.Metrics.sum("fdml_serve_cache_hits_total")
	l.serve(serveLayer{
		SubmitP50ms:   median(tp.Submits) * 1e3,
		QueueWaitP50s: median(tp.Waits),
		RunP50s:       median(tp.Runs),
		CacheHits:     hits,
		HitRatio:      share(float64(len(tp.HitLat)), float64(tp.Dups)),
		Dispatched:    dispatched,
		Rejections:    tp.Metrics.sum("fdml_serve_rejections_total"),
		PodsCreated:   tp.Pods,
		LatenessP90ms: tailPercentile(tp.Lateness, 90).Value * 1e3,
	})
	l.m.put("trace.search_s", "s", median(tp.Runs))
	l.m.put("trace.overhead_frac", "ratio", median(tp.Runs)/median(plain.Runs)-1)
	l.m.put("check.failed_frac", "ratio", share(float64(res.Failed), float64(res.Attempted)))
	res.Metrics = l.m
	return res, nil
}

// servedServer is one started server with its HTTP front.
type servedServer struct {
	srv  *serve.Server
	http *httptest.Server
}

func (s *servedServer) close() {
	s.http.Close()
	_ = s.srv.Close() // shutdown errors surface nowhere useful here
}

// startServer builds a server with key auth over dir and mounts its
// API and /metrics behind httptest.
func startServer(dir string, tenants []tenantInput) (*servedServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var keys strings.Builder
	for _, t := range tenants {
		fmt.Fprintf(&keys, "%s %s\n", t.Key, t.Name)
	}
	keyFile := filepath.Join(dir, "keys")
	if err := os.WriteFile(keyFile, []byte(keys.String()), 0o600); err != nil {
		return nil, err
	}
	auth, err := serve.NewKeyAuth(keyFile)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := serve.NewServer(serve.Options{DataDir: filepath.Join(dir, "data"), Auth: auth, Registry: reg})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		_ = reg.WritePrometheus(w)
	})
	return &servedServer{srv: srv, http: httptest.NewServer(mux)}, nil
}

// client is one HTTP connection's worth of API calls.
type client struct {
	base string
	c    *http.Client
}

func newClient(base string) *client {
	return &client{base: base, c: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   drainTimeout,
	}}
}

func (c *client) close() { c.c.CloseIdleConnections() }

// do runs one request and returns the status and body.
func (c *client) do(method, path, key string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) submit(t tenantInput, seed int64, engine string) (int, serve.JobRecord, error) {
	spec := serve.JobSpec{Alignment: t.Align, Options: serve.JobOptions{Seed: seed, Engine: engine}}
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, serve.JobRecord{}, err
	}
	code, b, err := c.do(http.MethodPost, "/v1/jobs", t.Key, body)
	if err != nil {
		return 0, serve.JobRecord{}, err
	}
	var rec serve.JobRecord
	if code/100 == 2 {
		err = json.Unmarshal(b, &rec)
	}
	return code, rec, err
}

func (c *client) job(t tenantInput, id string) (serve.JobRecord, error) {
	var rec serve.JobRecord
	code, b, err := c.do(http.MethodGet, "/v1/jobs/"+id, t.Key, nil)
	if err != nil {
		return rec, err
	}
	if code != http.StatusOK {
		return rec, fmt.Errorf("GET job %s: HTTP %d", id, code)
	}
	return rec, json.Unmarshal(b, &rec)
}

// result fetches a done job's stored result: the raw document (for
// byte comparison) and its decoded form.
func (c *client) result(t tenantInput, id string) (json.RawMessage, serve.JobResult, error) {
	var doc struct {
		Result json.RawMessage `json:"result"`
	}
	var res serve.JobResult
	code, b, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", t.Key, nil)
	if err != nil {
		return nil, res, err
	}
	if code != http.StatusOK {
		return nil, res, fmt.Errorf("GET result %s: HTTP %d", id, code)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, res, err
	}
	return doc.Result, res, json.Unmarshal(doc.Result, &res)
}

// metrics scrapes /metrics.
func (c *client) metrics() (promSample, error) {
	code, b, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	return parseProm(b), nil
}

// waitDone polls a job until it is terminal.
func (c *client) waitDone(t tenantInput, id string) (serve.JobRecord, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		rec, err := c.job(t, id)
		if err != nil {
			return rec, err
		}
		if rec.State.Terminal() {
			if rec.State != serve.StateDone {
				return rec, fmt.Errorf("job %s ended %s: %s", id, rec.State, rec.Error)
			}
			return rec, nil
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("job %s still %s after %v", id, rec.State, drainTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submitted is one submission the poller and the checks follow.
type submitted struct {
	Idx       int // arrival index; -1-tenant for warm-up jobs
	Tenant    int
	Seed      int64
	ID        string
	Scheduled time.Time
	// Of is the arrival index (or -1-tenant for a warm-up job) of the
	// spec a duplicate repeats.
	Of  int
	Rec serve.JobRecord
}

// runServePhase sets a server up serverSetups times (keeping the
// last), runs the schedule against it, then checks every output.
func runServePhase(dir string, tenants []tenantInput, sched []arrival, engine string) (*servePhase, error) {
	ph := &servePhase{Results: map[int]serve.JobResult{}}
	var (
		s     *servedServer
		warms []submitted
	)
	for i := 0; i < serverSetups; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		s, err = startServer(filepath.Join(dir, fmt.Sprint(i)), tenants)
		if err != nil {
			return nil, err
		}
		warms, err = warmUp(s, tenants, engine)
		if err != nil {
			s.close()
			return nil, err
		}
		ph.Setups = append(ph.Setups, time.Since(start).Seconds())
	}
	defer s.close()

	submit, poll := newClient(s.http.URL), newClient(s.http.URL)
	defer submit.close()
	defer poll.close()

	var (
		mu       sync.Mutex
		done     = map[int][]submitted{} // tenant -> completed fresh specs
		pending  []submitted
		fresh    []submitted
		dups     []submitted
		genDone  time.Time
		lastDone time.Time
		pollErrs []error
		pollWG   sync.WaitGroup
	)
	for _, wj := range warms {
		done[wj.Tenant] = append(done[wj.Tenant], wj)
	}
	before, err := poll.metrics()
	if err != nil {
		return nil, err
	}
	engBefore := engineTally.totals()

	// Poller: one connection, sweeping the outstanding fresh jobs.
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			mu.Lock()
			batch := append([]submitted(nil), pending...)
			ended := genDone
			mu.Unlock()
			if !ended.IsZero() && len(batch) == 0 {
				return
			}
			if !ended.IsZero() && time.Since(ended) > drainTimeout {
				mu.Lock()
				for _, p := range pending {
					pollErrs = append(pollErrs, fmt.Errorf("job %s never finished", p.ID))
				}
				pending = nil
				mu.Unlock()
				return
			}
			for _, p := range batch {
				rec, err := poll.job(tenants[p.Tenant], p.ID)
				if err != nil {
					mu.Lock()
					pollErrs = append(pollErrs, err)
					mu.Unlock()
					continue
				}
				if !rec.State.Terminal() {
					continue
				}
				p.Rec = rec
				mu.Lock()
				pending = removeID(pending, p.ID)
				if rec.State == serve.StateDone {
					done[p.Tenant] = append(done[p.Tenant], p)
					fresh = append(fresh, p)
					if rec.Finished.After(lastDone) {
						lastDone = rec.Finished
					}
				} else {
					pollErrs = append(pollErrs, fmt.Errorf("job %s ended %s: %s", p.ID, rec.State, rec.Error))
				}
				mu.Unlock()
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Generator: this goroutine, one connection, open loop.
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.At)
		time.Sleep(time.Until(due))
		ph.Lateness = append(ph.Lateness, time.Since(due).Seconds())
		t := tenants[a.Tenant]
		seed, of := a.Seed, i
		if a.Dup {
			mu.Lock()
			cands := done[a.Tenant]
			target := cands[int(a.Pick%uint32(len(cands)))]
			mu.Unlock()
			seed, of = target.Seed, target.Idx
		}
		ph.Attempted++
		sent := time.Now()
		code, rec, err := submit.submit(t, seed, engine)
		ph.Submits = append(ph.Submits, time.Since(sent).Seconds())
		sub := submitted{Idx: i, Tenant: a.Tenant, Seed: seed, ID: rec.ID, Scheduled: due, Of: of, Rec: rec}
		switch {
		case err != nil:
			ph.Failures = append(ph.Failures, fmt.Errorf("submit %d: %w", i, err))
		case a.Dup && code == http.StatusOK && rec.CacheHit:
			// A hit is timed from its actual send: how late the
			// generator ran is reported on its own, and a fresh
			// job's latency (from its due time) already carries it.
			ph.HitLat = append(ph.HitLat, rec.Finished.Sub(sent).Seconds())
			dups = append(dups, sub)
			mu.Lock()
			if rec.Finished.After(lastDone) {
				lastDone = rec.Finished
			}
			mu.Unlock()
		case !a.Dup && code == http.StatusAccepted:
			mu.Lock()
			pending = append(pending, sub)
			mu.Unlock()
		default:
			ph.Failures = append(ph.Failures, fmt.Errorf("submit %d (dup=%v): HTTP %d cache_hit=%v", i, a.Dup, code, rec.CacheHit))
		}
		if a.Dup {
			ph.Dups++
		}
	}
	mu.Lock()
	genDone = time.Now()
	mu.Unlock()
	pollWG.Wait()
	ph.Failures = append(ph.Failures, pollErrs...)
	ph.Span = lastDone.Sub(start)
	ph.Completed = len(fresh) + len(dups)

	for _, f := range fresh {
		ph.JobLat = append(ph.JobLat, f.Rec.Finished.Sub(f.Scheduled).Seconds())
		ph.Runs = append(ph.Runs, f.Rec.Finished.Sub(f.Rec.Started).Seconds())
		ph.Waits = append(ph.Waits, f.Rec.Started.Sub(f.Rec.Submitted).Seconds())
	}
	ph.Engine = engineTally.totals().minus(engBefore)
	if err := checkServeOutputs(ph, poll, tenants, warms, fresh, dups); err != nil {
		return nil, err
	}
	ph.Pods = ph.Metrics.get("fdml_serve_pods_created_total")
	ph.Metrics = ph.Metrics.minus(before)
	return ph, nil
}

// warmUp runs one job per tenant to completion, so both pods exist and
// are warm before the load starts.
func warmUp(s *servedServer, tenants []tenantInput, engine string) ([]submitted, error) {
	c := newClient(s.http.URL)
	defer c.close()
	var out []submitted
	for i, t := range tenants {
		code, rec, err := c.submit(t, warmSeed, engine)
		if err != nil {
			return nil, err
		}
		if code != http.StatusAccepted {
			return nil, fmt.Errorf("warm-up submit for %s: HTTP %d", t.Name, code)
		}
		out = append(out, submitted{Idx: -1 - i, Tenant: i, Seed: warmSeed, ID: rec.ID, Of: -1 - i})
	}
	for i := range out {
		rec, err := c.waitDone(tenants[i], out[i].ID)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		out[i].Rec = rec
	}
	return out, nil
}

// checkServeOutputs verifies a phase after its load: every fresh job
// is done with a well-formed tree over its tenant's taxa; every
// duplicate's stored result equals its original's byte for byte; and
// the fleet dispatched exactly the tasks of the searches that ran, so
// duplicates dispatched nothing. Failures are recorded, never dropped.
func checkServeOutputs(ph *servePhase, c *client, tenants []tenantInput, warms, fresh, dups []submitted) error {
	raw := map[int]json.RawMessage{}
	tasks := 0
	for _, f := range append(append([]submitted(nil), warms...), fresh...) {
		doc, res, err := c.result(tenants[f.Tenant], f.ID)
		if err != nil {
			ph.Failures = append(ph.Failures, err)
			continue
		}
		tasks += res.TotalTasks
		raw[f.Idx] = doc
		if err := checkTree(res, tenants[f.Tenant].Taxa); err != nil {
			ph.Failures = append(ph.Failures, fmt.Errorf("job %s: %w", f.ID, err))
			continue
		}
		if f.Idx >= 0 {
			ph.Results[f.Idx] = res
		}
	}
	for _, d := range dups {
		doc, _, err := c.result(tenants[d.Tenant], d.ID)
		if err != nil {
			ph.Failures = append(ph.Failures, err)
			continue
		}
		if orig, ok := raw[d.Of]; !ok || !bytes.Equal(doc, orig) {
			ph.Failures = append(ph.Failures, fmt.Errorf("duplicate %s: result differs from its original", d.ID))
		}
	}
	m, err := c.metrics()
	if err != nil {
		return err
	}
	ph.Metrics = m
	ran := m.get("fdml_dispatch_total") + m.get("fdml_inline_total") - m.sum("fdml_timeouts_total")
	if int(ran) != tasks {
		ph.Failures = append(ph.Failures, fmt.Errorf("fleet dispatched %v tasks, searches account for %d: duplicates dispatched work", ran, tasks))
	}
	return nil
}

// checkTree validates a stored result: a finite lnL and a best tree
// over exactly the tenant's taxa.
func checkTree(res serve.JobResult, taxa []string) error {
	if math.IsNaN(res.BestLnL) || math.IsInf(res.BestLnL, 0) || res.BestLnL >= 0 {
		return fmt.Errorf("bad lnL %v", res.BestLnL)
	}
	tr, err := tree.ParseNewick(res.BestNewick, taxa)
	if err != nil {
		return err
	}
	if tr.NumLeaves() != len(taxa) {
		return fmt.Errorf("best tree has %d of %d taxa", tr.NumLeaves(), len(taxa))
	}
	return nil
}

func removeID(xs []submitted, id string) []submitted {
	for i, x := range xs {
		if x.ID == id {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}
