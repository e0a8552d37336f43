package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// layerMetrics builds the traced run's per-layer metric set. Every
// workload calls the same helpers in the same order, so every traced
// run prints the same names; a layer a workload does not exercise
// reads 0. Each seconds metric comes with its share of the workload's
// base time (search_s, or the summed run time of the measured jobs for
// serve), named <metric without _s>_share.
type layerMetrics struct{ m *metricSet }

func newLayerMetrics() *layerMetrics { return &layerMetrics{m: newMetricSet()} }

func (l *layerMetrics) seconds(name string, v, base float64) {
	l.m.put(name, "s", v)
	l.m.put(strings.TrimSuffix(name, "_s")+"_share", "ratio", share(v, base))
}

func (l *layerMetrics) count(name string, v float64) { l.m.put(name, "count", v) }

// seq reports the input layer; its shares are of the input set-up time.
func (l *layerMetrics) seq(generate, compress float64, patterns int, setup float64) {
	l.seconds("seq.generate_s", generate, setup)
	l.seconds("seq.compress_s", compress, setup)
	l.count("seq.patterns", float64(patterns))
}

// engine reports the likelihood layer from the timing decorator and
// the engines' own counters.
func (l *layerMetrics) engine(t engineTotals, base float64) {
	for i, name := range opNames {
		l.count("likelihood."+name+"_calls", float64(t.Calls[i]))
		l.seconds("likelihood."+name+"_s", t.Time[i].Seconds(), base)
	}
	l.seconds("likelihood.engine_s", t.Seconds(), base)
	l.count("likelihood.newton_iters", float64(t.Stats.NewtonIters))
	l.count("likelihood.smooth_passes", float64(t.Stats.SmoothPasses))
	l.count("likelihood.ops", float64(t.Ops))
	l.m.put("likelihood.clv_hit_ratio", "ratio", share(float64(t.Stats.Hits), float64(t.Stats.Hits+t.Stats.Misses)))
	l.m.put("likelihood.newton_iter_ns", "ns", share(t.Seconds()*1e9, float64(t.Stats.NewtonIters)))
}

// foreman reports the dispatch and wire layers from a RunObserver
// registry (empty for a serial run, which never dispatches). Phase
// seconds are summed over tasks, so they can exceed wall time when
// workers overlap; worker_busy_frac divides the summed evaluation time
// by workers × wall.
func (l *layerMetrics) foreman(s promSample, base float64, tasks, workers int, wall float64) {
	l.seconds("foreman.queue_wait_s", s.get(`fdml_task_phase_seconds_sum{phase="queue"}`), base)
	l.seconds("foreman.rtt_s", s.get(`fdml_task_phase_seconds_sum{phase="rtt"}`), base)
	l.seconds("foreman.network_s", s.get(`fdml_task_phase_seconds_sum{phase="network"}`), base)
	l.m.put("foreman.worker_busy_frac", "ratio", share(s.get(`fdml_task_phase_seconds_sum{phase="eval"}`), float64(workers)*wall))
	l.count("foreman.inline", s.get("fdml_inline_total"))
	l.count("foreman.timeouts", s.sum("fdml_timeouts_total"))
	out, in := s.get(`fdml_net_bytes_total{dir="out"}`), s.get(`fdml_net_bytes_total{dir="in"}`)
	l.m.put("comm.bytes_out", "bytes", out)
	l.m.put("comm.bytes_in", "bytes", in)
	l.count("comm.frames", s.sum("fdml_net_messages_total"))
	l.m.put("comm.bytes_per_task", "bytes", share(in+out, float64(tasks)))
}

// serveLayer is the service layer's traced numbers.
type serveLayer struct {
	SubmitP50ms, QueueWaitP50s, RunP50s float64
	CacheHits, HitRatio                 float64
	Dispatched, Rejections, PodsCreated float64
	LatenessP90ms                       float64
}

func (l *layerMetrics) serve(s serveLayer) {
	l.m.put("serve.submit_p50_ms", "ms", s.SubmitP50ms)
	l.m.put("serve.queue_wait_p50_s", "s", s.QueueWaitP50s)
	l.m.put("serve.run_p50_s", "s", s.RunP50s)
	l.count("serve.cache_hits", s.CacheHits)
	l.m.put("serve.hit_ratio", "ratio", s.HitRatio)
	l.count("serve.dispatched", s.Dispatched)
	l.count("serve.rejections", s.Rejections)
	l.count("serve.pods_created", s.PodsCreated)
	l.m.put("serve.gen_lateness_p90_ms", "ms", s.LatenessP90ms)
}

// promSample is one scrape of Prometheus text: series -> value.
type promSample map[string]float64

// parseProm reads the text exposition format, keeping every sample
// line under its full series name (metric name plus label set).
func parseProm(b []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// scrapeRegistry renders a registry the way /metrics does and parses it.
func scrapeRegistry(reg *obs.Registry) (promSample, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.Bytes()), nil
}

// minus returns the change from an earlier scrape.
func (p promSample) minus(before promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}

// get returns one series (0 when absent).
func (p promSample) get(series string) float64 { return p[series] }

// sum adds every series of a metric family.
func (p promSample) sum(name string) float64 {
	var t float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// peakRSSMB reports the process's peak resident set (VmHWM), falling
// back to the Go runtime's total obtained memory off Linux.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
