package mlsearch

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/likelihood"
)

// bundleFixture is a small valid bundle for the codec tests.
func bundleFixture() DataBundle {
	return DataBundle{PhylipText: []byte("3 4\na ACGT\nb ACGA\nc CCGT\n"), TTRatio: 2}
}

// withPrecisionSlot returns enc with its trailing 4-byte CLV precision
// slot set to v; enc must carry no extension fields.
func withPrecisionSlot(enc []byte, v byte) []byte {
	out := append([]byte(nil), enc...)
	out[len(out)-1] = v
	return out
}

// TestDataBundlePrecisionSlot: writers always put 0 in the bundle's
// precision slot, and decoding rejects any other value by name, so a
// master that asks for float32 storage meets a clear failure.
func TestDataBundlePrecisionSlot(t *testing.T) {
	enc := MarshalDataBundle(bundleFixture())
	if !bytes.Equal(enc[len(enc)-4:], []byte{0, 0, 0, 0}) {
		t.Fatalf("precision slot %x, want 0", enc[len(enc)-4:])
	}
	if _, err := UnmarshalDataBundle(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalDataBundle(withPrecisionSlot(enc, 1)); !errors.Is(err, ErrBundlePrecision) {
		t.Errorf("precision slot 1: error %v, want ErrBundlePrecision", err)
	}
}

// TestDataBundleStrictExtensions: the bundle decides how results are
// computed, so extension fields this build does not understand, repeated
// or out of order, or in a non-canonical spelling are decode errors.
func TestDataBundleStrictExtensions(t *testing.T) {
	base := MarshalDataBundle(bundleFixture())
	ext := func(fields ...[]byte) []byte {
		w := wireWriter{buf: append([]byte(nil), base...)}
		for _, f := range fields {
			w.ext(f[0], f[1:])
		}
		return w.buf
	}
	field := func(tag byte, payload string) []byte { return append([]byte{tag}, payload...) }
	bad := map[string][]byte{
		"unknown tag":         ext(field(9, "x")),
		"repeated engine":     ext(field(extBundleEngine, "cached"), field(extBundleEngine, "cached")),
		"out of order":        ext(field(extBundleSmoothMode, "gradient"), field(extBundleEngine, "cached")),
		"empty engine":        ext(field(extBundleEngine, "")),
		"smooth alias":        ext(field(extBundleSmoothMode, "grad")),
		"explicit sweep":      ext(field(extBundleSmoothMode, "sweep")),
		"unknown smooth mode": ext(field(extBundleSmoothMode, "anneal")),
	}
	for name, data := range bad {
		if _, err := UnmarshalDataBundle(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	good := ext(field(extBundleEngine, "reference"), field(extBundleSmoothMode, "gradient"))
	b, err := UnmarshalDataBundle(good)
	if err != nil {
		t.Fatal(err)
	}
	if b.Engine != "reference" || b.SmoothMode != likelihood.SmoothGradient {
		t.Errorf("canonical extensions lost: %+v", b)
	}
}

// FuzzUnmarshalDataBundle: decoding never panics, and every bundle that
// decodes re-encodes to exactly the input bytes.
func FuzzUnmarshalDataBundle(f *testing.F) {
	f.Add(MarshalDataBundle(bundleFixture()))
	f.Add(MarshalDataBundle(DataBundle{
		PhylipText: []byte("2 4\na AAAA\nb CCCC\n"), TTRatio: 2.5,
		SiteRates: []float64{1, 2, 0.5, 0.5}, Weights: []float64{1, 1, 0, 2},
		Engine: "reference", SmoothMode: likelihood.SmoothGradient,
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalDataBundle(data)
		if err != nil {
			return
		}
		if got := MarshalDataBundle(b); !bytes.Equal(got, data) {
			t.Fatalf("decoded bundle re-encodes to different bytes:\n in  %x\n out %x", data, got)
		}
	})
}

// TestServeElasticUnusableBundleIsFatal: a worker whose welcome or data
// bundle cannot be used returns at once with ErrUnusableBundle instead
// of rejoining. The attempt limit alone would never stop it, because
// every successful join resets the failure count; it only bounds the
// retries against a closed router if this test fails.
func TestServeElasticUnusableBundleIsFatal(t *testing.T) {
	lay := ElasticLayout(false)
	engine := bundleFixture()
	engine.Engine = "warp"
	cases := []struct {
		name    string
		welcome []byte
		is      error
	}{
		{"garbage welcome", []byte("not a welcome"), ErrUnusableBundle},
		{"precision slot", withPrecisionSlot(marshalWelcome(lay, bundleFixture()), 1), ErrBundlePrecision},
		{"unbuildable alignment", marshalWelcome(lay, DataBundle{PhylipText: []byte("garbage")}), ErrUnusableBundle},
		{"unknown engine", marshalWelcome(lay, engine), ErrUnusableBundle},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var joins atomic.Int32
			router, err := comm.NewElasticTCPRouter(comm.RouterConfig{
				Addr:         "127.0.0.1:0",
				FirstDynamic: lay.FirstDynamicRank(),
				Welcome:      c.welcome,
				NotifyRank:   -1,
				OnJoin:       func(int) { joins.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			addr, _ := comm.ListenAddr(router)
			done := make(chan error, 1)
			go func() {
				done <- ServeElastic(addr.String(), WorkerHooks{}, ReconnectPolicy{Base: time.Millisecond, Cap: 2 * time.Millisecond, MaxAttempts: 1000})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrUnusableBundle) || !errors.Is(err, c.is) {
					t.Errorf("ServeElastic returned %v, want ErrUnusableBundle wrapping %v", err, c.is)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("ServeElastic still rejoining after 10s (%d joins)", joins.Load())
			}
			// The router may count the join after the worker has
			// already given up; wait for it, then check there was
			// exactly one.
			for deadline := time.Now().Add(2 * time.Second); joins.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := joins.Load(); n != 1 {
				t.Errorf("%d joins, want 1", n)
			}
		})
	}
}
