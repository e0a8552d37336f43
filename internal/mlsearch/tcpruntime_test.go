package mlsearch

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/likelihood"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// TestTCPRuntimeEndToEnd runs the full distributed program on loopback:
// master+router, foreman, monitor, and two anonymous worker "processes"
// that join via the elastic handshake, then compares against the serial
// answer.
func TestTCPRuntimeEndToEnd(t *testing.T) {
	ds, err := simulate.New(simulate.Options{Taxa: 7, Sites: 150, Seed: 31, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := seq.WritePhylip(&phy, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	bundle := DataBundle{PhylipText: phy.Bytes(), TTRatio: 2.0}

	// The workers must build the exact dataset the master searches on.
	m, pat, taxa, err := bundle.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Taxa: taxa, Patterns: pat, Model: m, Seed: 7, RearrangeExtent: 1}
	serial, err := Run(cfg, RunOptions{Transport: Serial})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 2
	opt := RunOptions{
		Transport:   TCP,
		Addr:        "127.0.0.1:0",
		Workers:     workers,
		WithMonitor: true,
		Bundle:      bundle,
	}

	addrCh := make(chan net.Addr, 1)
	opt.OnListen = func(a net.Addr) { addrCh <- a }

	var wg sync.WaitGroup
	var outcome *RunOutcome
	var masterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcome, masterErr = Run(cfg, opt)
	}()

	addr := (<-addrCh).String()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ServeElastic(addr, WorkerHooks{}, ReconnectPolicy{Disabled: true}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if masterErr != nil {
		t.Fatal(masterErr)
	}
	res := outcome.Results[0]
	if res.BestNewick != serial.Results[0].BestNewick || res.LnL != serial.Results[0].LnL {
		t.Errorf("TCP run diverged from serial: %g vs %g", res.LnL, serial.Results[0].LnL)
	}
	if outcome.Monitor == nil || outcome.Monitor.Results != res.TotalTasks {
		t.Errorf("monitor stats inconsistent: %+v", outcome.Monitor)
	}
	if len(outcome.Monitor.TasksPerWorker) != workers {
		t.Errorf("work spread over %d workers, want %d", len(outcome.Monitor.TasksPerWorker), workers)
	}
	if outcome.Monitor.Joins != workers {
		t.Errorf("monitor saw %d joins, want %d", outcome.Monitor.Joins, workers)
	}
}

// TestTCPRunNoWorkersInline proves the bottom rung of the degradation
// ladder: with a zero join barrier and no workers at all, the foreman
// evaluates every task inline and the run still matches serial.
func TestTCPRunNoWorkersInline(t *testing.T) {
	ds, err := simulate.New(simulate.Options{Taxa: 6, Sites: 120, Seed: 13, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := seq.WritePhylip(&phy, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	bundle := DataBundle{PhylipText: phy.Bytes(), TTRatio: 2.0}
	m, pat, taxa, err := bundle.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Taxa: taxa, Patterns: pat, Model: m, Seed: 9, RearrangeExtent: 1}
	serial, err := Run(cfg, RunOptions{Transport: Serial})
	if err != nil {
		t.Fatal(err)
	}

	outcome, err := Run(cfg, RunOptions{
		Transport:   TCP,
		Addr:        "127.0.0.1:0",
		Workers:     0, // start immediately, no workers will ever join
		WithMonitor: true,
		Bundle:      bundle,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := outcome.Results[0]
	if res.BestNewick != serial.Results[0].BestNewick || res.LnL != serial.Results[0].LnL {
		t.Errorf("inline run diverged from serial: %g vs %g", res.LnL, serial.Results[0].LnL)
	}
	if outcome.Monitor.Inline != res.TotalTasks {
		t.Errorf("monitor counted %d inline evaluations, want %d", outcome.Monitor.Inline, res.TotalTasks)
	}
}

func TestDataBundleCodec(t *testing.T) {
	in := DataBundle{
		PhylipText: []byte("2 4\na AAAA\nb CCCC\n"),
		TTRatio:    2.5,
		SiteRates:  []float64{1, 2, 0.5, 0.5},
		Weights:    []float64{1, 1, 0, 2},
		Engine:     "reference",
		SmoothMode: likelihood.SmoothGradient,
	}
	out, err := UnmarshalDataBundle(MarshalDataBundle(in))
	if err != nil {
		t.Fatal(err)
	}
	if string(out.PhylipText) != string(in.PhylipText) || out.TTRatio != in.TTRatio {
		t.Errorf("bundle mismatch: %+v", out)
	}
	if len(out.SiteRates) != 4 || len(out.Weights) != 4 {
		t.Errorf("slices lost: %+v", out)
	}
	if out.Engine != "reference" {
		t.Errorf("engine lost: %q", out.Engine)
	}
	if out.SmoothMode != likelihood.SmoothGradient {
		t.Errorf("smooth mode lost: %v", out.SmoothMode)
	}
	if _, err := UnmarshalDataBundle([]byte{0x00}); err == nil {
		t.Error("bad kind byte accepted")
	}
	// Engine and smooth mode ride in extension fields: a bundle without
	// them (an older master) must decode cleanly with the defaults — the
	// worker then falls back to the default backend and the sweep.
	in.Engine = ""
	in.SmoothMode = likelihood.SmoothSweep
	out, err = UnmarshalDataBundle(MarshalDataBundle(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != "" {
		t.Errorf("engine invented: %q", out.Engine)
	}
	if out.SmoothMode != likelihood.SmoothSweep {
		t.Errorf("smooth mode invented: %v", out.SmoothMode)
	}
}

func TestDataBundleBuild(t *testing.T) {
	b := DataBundle{PhylipText: []byte("3 4\na ACGT\nb ACGA\nc CCGT\n")}
	m, pat, taxa, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "F84" || pat.NumSeqs() != 3 || len(taxa) != 3 {
		t.Errorf("build: %s %d %v", m.Name(), pat.NumSeqs(), taxa)
	}
	if _, _, _, err := (DataBundle{PhylipText: []byte("garbage")}).Build(); err == nil {
		t.Error("garbage alignment accepted")
	}
}

func TestWelcomeCodec(t *testing.T) {
	lay := ElasticLayout(true)
	bundle := DataBundle{PhylipText: []byte("2 4\na AAAA\nb CCCC\n"), TTRatio: 2.0}
	gotLay, gotBundle, err := unmarshalWelcome(marshalWelcome(lay, bundle))
	if err != nil {
		t.Fatal(err)
	}
	if gotLay.Master != lay.Master || gotLay.Foreman != lay.Foreman || gotLay.Monitor != lay.Monitor || !gotLay.Elastic {
		t.Errorf("layout round trip: %+v", gotLay)
	}
	if string(gotBundle.PhylipText) != string(bundle.PhylipText) {
		t.Errorf("bundle round trip: %+v", gotBundle)
	}
	if _, _, err := unmarshalWelcome([]byte{0x00}); err == nil {
		t.Error("bad welcome accepted")
	}
}

func TestParseReconnectPolicy(t *testing.T) {
	p, err := ParseReconnectPolicy("on")
	if err != nil || p.Disabled {
		t.Errorf("on: %+v %v", p, err)
	}
	p, err = ParseReconnectPolicy("off")
	if err != nil || !p.Disabled {
		t.Errorf("off: %+v %v", p, err)
	}
	p, err = ParseReconnectPolicy("base=500ms,cap=30s,max=10")
	if err != nil || p.Base != 500*time.Millisecond || p.Cap != 30*time.Second || p.MaxAttempts != 10 {
		t.Errorf("settings: %+v %v", p, err)
	}
	if _, err := ParseReconnectPolicy("nope=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ParseReconnectPolicy("base"); err == nil {
		t.Error("missing value accepted")
	}
}

func TestReconnectBackoffBounds(t *testing.T) {
	p := ReconnectPolicy{}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 12; n++ {
		d := p.backoff(n, rng)
		if d <= 0 || d > p.Cap {
			t.Fatalf("backoff(%d) = %v outside (0, %v]", n, d, p.Cap)
		}
	}
}
