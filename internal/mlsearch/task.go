// Package mlsearch implements fastDNAml's maximum likelihood tree search
// (paper §2, steps 1-5) in both serial and parallel form. The parallel
// form reproduces the paper's four-module architecture (Fig 2): a master
// that generates and compares trees, a foreman that dispatches trees to
// workers through a work queue and ready queue with fault tolerance, the
// workers that optimize branch lengths and compute likelihoods, and an
// optional monitor that collects instrumentation.
package mlsearch

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Task is one unit of worker work: a candidate tree topology whose branch
// lengths must be optimized and whose likelihood must be returned (paper
// §2: "Each new tree is dispatched to a worker process, which calculates
// the branch lengths and the overall likelihood value").
type Task struct {
	// ID identifies the task within its round.
	ID uint64
	// Round is the round sequence number (monotone per search).
	Round uint64
	// Newick is the candidate tree with starting branch lengths.
	Newick string
	// LocalTaxon, when >= 0, asks the worker to optimize only the
	// branches near this taxon's attachment point (the rapid insertion
	// scoring of §2.1); -1 requests smoothing of all branches.
	LocalTaxon int32
	// Passes bounds the smoothing passes (0 uses the worker default).
	Passes int32
	// KeepTree asks the parallel runtime to return this task's
	// optimized tree even when it is not the round's best (the foreman
	// normally strips non-best trees to save bandwidth). User-tree
	// evaluation sets it.
	KeepTree bool

	// BaseNewick, when non-empty, switches the task to shared-base
	// evaluation: the worker parses and caches this base tree once per
	// batch (reusing its engine's CLV cache across the batch's tasks)
	// and derives the candidate from it, instead of parsing Newick.
	// Every worker parses the same string, so node IDs agree with the
	// master's enumeration.
	BaseNewick string
	// InsertEdge, when >= 0 with BaseNewick set, scores inserting
	// LocalTaxon at index InsertEdge of the base tree's
	// InsertionEdges() — O(patterns) work at the insertion edge.
	InsertEdge int32
	// MoveP/MoveS/MoveTA/MoveTB, when InsertEdge < 0 with BaseNewick
	// set, identify a rearrangement by node IDs in the base tree: prune
	// the subtree at MoveS (dissolving MoveP) and regraft it onto edge
	// (MoveTA, MoveTB). The worker applies the move, optimizes locally,
	// and undoes it, keeping its cached base tree warm.
	MoveP, MoveS, MoveTA, MoveTB int32

	// Trace is the task's span context, minted by the master so one task
	// can be followed master → foreman → worker → kernel. The zero value
	// means untraced; it travels as an extension field, so pre-trace
	// peers interoperate.
	Trace obs.SpanContext

	// Job identifies the search (jumble or replicate) this task belongs
	// to when several searches share one foreman. Task IDs are only
	// unique within a job, so the foreman keys its round state by
	// (Job, ID). Zero means "the single-job protocol" — the value legacy
	// masters send — and travels as an extension field, so old decoders
	// tolerate it.
	Job uint64
}

// Result is a worker's answer to one Task.
type Result struct {
	// TaskID echoes Task.ID.
	TaskID uint64
	// Round echoes Task.Round.
	Round uint64
	// Newick is the tree with optimized branch lengths.
	Newick string
	// LnL is the optimized log-likelihood.
	LnL float64
	// Ops is the number of likelihood work units the evaluation cost;
	// the cluster simulator's cost model consumes it. Cache hits cost
	// zero ops, so shared-base tasks report only the work actually done.
	Ops uint64
	// CacheHits and CacheMisses count the worker engine's CLV cache
	// behaviour during this task, for the scaling simulator.
	CacheHits, CacheMisses uint64
	// Worker is the responding worker's rank (filled by the foreman).
	Worker int32
	// Eval is the worker-side evaluation time for the task (parse +
	// CLV compute + Newton iterations), at full time.Duration precision.
	// The foreman subtracts it from the observed round trip to attribute
	// the network share of a task's latency.
	Eval time.Duration
	// NewtonIters counts Newton-Raphson iterations the task consumed.
	NewtonIters uint64
	// Trace echoes Task.Trace so the reply closes the dispatched span.
	Trace obs.SpanContext
	// Job echoes Task.Job so the foreman can attribute the reply to the
	// right job without consulting its dispatch records.
	Job uint64
}

// --- binary wire codec -------------------------------------------------
//
// Messages travel as length-delimited fields in big-endian order. The
// codec is hand-rolled (no reflection) so the wire format is explicit,
// stable, and cheap; the paper's processes exchange ASCII trees plus a
// few scalars, and this mirrors that.

type wireWriter struct{ buf []byte }

func (w *wireWriter) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *wireWriter) i32(v int32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	w.buf = append(w.buf, b[:]...)
}

func (w *wireWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *wireWriter) str(s string) {
	w.i32(int32(len(s)))
	w.buf = append(w.buf, s...)
}

type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("mlsearch: truncated message reading %s at offset %d", what, r.off)
	}
}

func (r *wireReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) i32(what string) int32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := int32(binary.BigEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return v
}

func (r *wireReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

func (r *wireReader) str(what string) string {
	n := r.i32(what)
	if r.err != nil {
		return ""
	}
	if n < 0 || r.off+int(n) > len(r.buf) {
		r.fail(what)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *wireReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("mlsearch: %d trailing bytes decoding %s", len(r.buf)-r.off, what)
	}
	return nil
}

// --- extension fields --------------------------------------------------
//
// Envelope types grow by appending extension fields after the fixed v1
// layout: each is tag(u8) length(u32) payload. Readers skip tags they do
// not know, so mixed-version worlds interoperate during rolling upgrades
// (an old master with new workers, or the reverse); writers omit
// zero-valued fields, so untraced runs pay zero wire bytes. Truncated
// extensions are still hard errors — tolerance is for unknown fields,
// not corrupt frames. The DataBundle is the exception: it decides how
// results are computed, so its decoder rejects unknown fields
// (UnmarshalDataBundle).

// ext appends one tagged extension field.
func (w *wireWriter) ext(tag byte, payload []byte) {
	w.buf = append(w.buf, tag)
	w.i32(int32(len(payload)))
	w.buf = append(w.buf, payload...)
}

// extU64 appends a u64 extension field, omitting zero values.
func (w *wireWriter) extU64(tag byte, v uint64) {
	if v == 0 {
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.ext(tag, b[:])
}

// extFields consumes the remainder of the buffer as extension fields,
// invoking fn for each; unknown tags are fn's to ignore.
func (r *wireReader) extFields(what string, fn func(tag byte, payload []byte)) error {
	for r.err == nil && r.off < len(r.buf) {
		tag := r.buf[r.off]
		r.off++
		n := r.i32(what)
		if r.err != nil {
			break
		}
		if n < 0 || r.off+int(n) > len(r.buf) {
			r.fail(what)
			break
		}
		fn(tag, r.buf[r.off:r.off+int(n)])
		r.off += int(n)
	}
	return r.err
}

// extU64Val decodes a u64 extension payload (shorter payloads read 0).
func extU64Val(payload []byte) uint64 {
	if len(payload) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(payload)
}

// Extension tags of the Task envelope.
const (
	extTaskTraceID byte = 1 + iota
	extTaskSpanID
	extTaskJob
)

// Extension tags of the Result envelope.
const (
	extResultTraceID byte = 1 + iota
	extResultSpanID
	extResultEvalNs
	extResultNewtonIters
	extResultJob
)

// MarshalTask encodes a Task for the wire. The returned buffer comes
// from the comm buffer pool: once it has been handed to Send (which
// copies or takes ownership), the caller may comm.PutBuf it.
func MarshalTask(t Task) []byte {
	w := wireWriter{buf: comm.GetBuf(96 + len(t.Newick) + len(t.BaseNewick))[:0]}
	w.u64(t.ID)
	w.u64(t.Round)
	w.str(t.Newick)
	w.i32(t.LocalTaxon)
	w.i32(t.Passes)
	keep := int32(0)
	if t.KeepTree {
		keep = 1
	}
	w.i32(keep)
	w.str(t.BaseNewick)
	w.i32(t.InsertEdge)
	w.i32(t.MoveP)
	w.i32(t.MoveS)
	w.i32(t.MoveTA)
	w.i32(t.MoveTB)
	w.extU64(extTaskTraceID, t.Trace.TraceID)
	w.extU64(extTaskSpanID, t.Trace.SpanID)
	w.extU64(extTaskJob, t.Job)
	return w.buf
}

// UnmarshalTask decodes a Task.
func UnmarshalTask(b []byte) (Task, error) {
	r := wireReader{buf: b}
	t := Task{
		ID:         r.u64("task id"),
		Round:      r.u64("task round"),
		Newick:     r.str("task newick"),
		LocalTaxon: r.i32("task local taxon"),
		Passes:     r.i32("task passes"),
	}
	t.KeepTree = r.i32("task keep tree") != 0
	t.BaseNewick = r.str("task base newick")
	t.InsertEdge = r.i32("task insert edge")
	t.MoveP = r.i32("task move p")
	t.MoveS = r.i32("task move s")
	t.MoveTA = r.i32("task move ta")
	t.MoveTB = r.i32("task move tb")
	err := r.extFields("task extension", func(tag byte, payload []byte) {
		switch tag {
		case extTaskTraceID:
			t.Trace.TraceID = extU64Val(payload)
		case extTaskSpanID:
			t.Trace.SpanID = extU64Val(payload)
		case extTaskJob:
			t.Job = extU64Val(payload)
		}
	})
	return t, err
}

// MarshalResult encodes a Result for the wire. Like MarshalTask, the
// buffer is pool-backed and may be comm.PutBuf'd after Send.
func MarshalResult(res Result) []byte {
	w := wireWriter{buf: comm.GetBuf(128 + len(res.Newick))[:0]}
	w.u64(res.TaskID)
	w.u64(res.Round)
	w.str(res.Newick)
	w.f64(res.LnL)
	w.u64(res.Ops)
	w.u64(res.CacheHits)
	w.u64(res.CacheMisses)
	w.i32(res.Worker)
	w.extU64(extResultTraceID, res.Trace.TraceID)
	w.extU64(extResultSpanID, res.Trace.SpanID)
	w.extU64(extResultEvalNs, uint64(res.Eval))
	w.extU64(extResultNewtonIters, res.NewtonIters)
	w.extU64(extResultJob, res.Job)
	return w.buf
}

// UnmarshalResult decodes a Result.
func UnmarshalResult(b []byte) (Result, error) {
	r := wireReader{buf: b}
	res := Result{
		TaskID:      r.u64("result task id"),
		Round:       r.u64("result round"),
		Newick:      r.str("result newick"),
		LnL:         r.f64("result lnl"),
		Ops:         r.u64("result ops"),
		CacheHits:   r.u64("result cache hits"),
		CacheMisses: r.u64("result cache misses"),
		Worker:      r.i32("result worker"),
	}
	err := r.extFields("result extension", func(tag byte, payload []byte) {
		switch tag {
		case extResultTraceID:
			res.Trace.TraceID = extU64Val(payload)
		case extResultSpanID:
			res.Trace.SpanID = extU64Val(payload)
		case extResultEvalNs:
			res.Eval = time.Duration(extU64Val(payload))
		case extResultNewtonIters:
			res.NewtonIters = extU64Val(payload)
		case extResultJob:
			res.Job = extU64Val(payload)
		}
	})
	return res, err
}
