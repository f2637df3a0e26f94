// Package queues adapts every queue implementation in this repository
// to the common queueapi interface and provides a registry keyed by
// the names used in the paper's figures (wCQ, SCQ, LCRQ, YMC, CRTurn,
// CCQueue, MSQueue, FAA) plus the post-paper compositions (the
// unbounded LSCQ/UWCQ, and the blocking Chan facades, two of which
// buffer on four wCQ shards).
//
// Every nonblocking ring-based variant — both cores and the unbounded
// compositions over them — is adapted by ONE generic coreQueue through
// the ringcore.Core contract, so registering a new composition is a
// table entry plus a small build function. Only the paper's external
// baselines (LCRQ, YMC, CRTurn, CCQueue, MSQueue, FAA) and the
// blocking Chan facades keep bespoke adapters.
package queues

import (
	"context"
	"fmt"
	"sort"

	wfqueue "repro"
	"repro/internal/ccq"
	"repro/internal/crturn"
	"repro/internal/faa"
	"repro/internal/lcrq"
	"repro/internal/metrics"
	"repro/internal/msq"
	"repro/internal/queueapi"
	"repro/internal/ringcore"
	"repro/internal/unbounded"
	"repro/internal/ymc"
)

// Config parameterizes queue construction.
type Config struct {
	// Capacity is the bounded-ring capacity (wCQ, SCQ, Chan,
	// ChanSharded; the paper's benchmarks use 2^16) and the per-ring
	// size of the unbounded variants (LSCQ, UWCQ, ChanUnbounded,
	// ChanShardedUnbounded), where it is a growth granularity rather
	// than a bound.
	Capacity uint64
	// MaxThreads bounds the number of Handle() calls for queues with
	// per-thread state.
	MaxThreads int
	// Core tunes the ring-based variants: the F&A mode (the Fig. 12
	// configuration), wCQ's patience and help delay, and the metrics
	// sink. The zero value selects native F&A, the paper's defaults
	// and no metrics. With a sink, every layer of a composition records
	// into it and the built queue implements queueapi.Statser. Of the
	// external baselines, LCRQ and FAA read only the mode (LCRQ refuses
	// emulated F&A); the rest ignore Core.
	Core ringcore.Options
}

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = 1 << 16
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 256
	}
	return c
}

// Builder constructs a queue implementation.
type Builder func(Config) (queueapi.Queue, error)

// registry maps figure names to builders. The ring-based variants all
// route through newCoreBuilder; adding a composition is one entry.
var registry = map[string]Builder{
	"wCQ": newCoreBuilder("wCQ", func(cfg Config) (ringcore.Core[uint64], error) {
		return ringcore.New[uint64](ringcore.KindWCQ, cfg.Capacity, cfg.MaxThreads, &cfg.Core)
	}),
	"SCQ": newCoreBuilder("SCQ", func(cfg Config) (ringcore.Core[uint64], error) {
		return ringcore.New[uint64](ringcore.KindSCQ, cfg.Capacity, cfg.MaxThreads, &cfg.Core)
	}),
	"LSCQ":          newCoreBuilder("LSCQ", buildUnbounded(ringcore.KindSCQ)),
	"UWCQ":          newCoreBuilder("UWCQ", buildUnbounded(ringcore.KindWCQ)),
	"LCRQ":          newLCRQ,
	"YMC":           newYMC,
	"CRTurn":        newCRTurn,
	"CCQueue":       newCCQueue,
	"MSQueue":       newMSQueue,
	"FAA":           newFAA,
	"Chan":          newChanBuilder("Chan", wfqueue.BackendWCQ),
	"ChanSCQ":       newChanBuilder("ChanSCQ", wfqueue.BackendSCQ),
	"ChanSharded":   newChanBuilder("ChanSharded", wfqueue.BackendSharded),
	"ChanUnbounded": newChanBuilder("ChanUnbounded", wfqueue.BackendUnbounded),
	"ChanShardedUnbounded": newChanBuilder("ChanShardedUnbounded",
		wfqueue.BackendShardedUnbounded),
}

// buildUnbounded returns the core build function for the unbounded
// linked-ring queues of Appendix A. cfg.Capacity is the per-ring
// capacity, not a bound.
func buildUnbounded(kind ringcore.Kind) func(Config) (ringcore.Core[uint64], error) {
	return func(cfg Config) (ringcore.Core[uint64], error) {
		q, err := unbounded.New[uint64](kind, cfg.Capacity, cfg.MaxThreads, &cfg.Core)
		if err != nil {
			return nil, err
		}
		return q, nil
	}
}

// Names returns the registered queue names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New builds the named queue.
func New(name string, cfg Config) (queueapi.Queue, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("queues: unknown queue %q (have %v)", name, Names())
	}
	return b(cfg)
}

// RealQueues lists the names that are actual FIFO queues (excludes the
// FAA pseudo-queue), in the paper's figure order, followed by the
// post-paper nonblocking compositions: the unbounded linked-ring
// queues of Appendix A (LSCQ, UWCQ).
func RealQueues() []string {
	return []string{"wCQ", "SCQ", "LCRQ", "YMC", "CRTurn", "CCQueue", "MSQueue",
		"LSCQ", "UWCQ"}
}

// BlockingQueues lists the registered blocking (Chan) facades — the
// queues whose handles implement queueapi.Waitable and that implement
// queueapi.Closer, so blocking harnesses can close and drain them.
func BlockingQueues() []string {
	return []string{"Chan", "ChanSCQ", "ChanSharded", "ChanShardedUnbounded", "ChanUnbounded"}
}

// UnboundedQueues lists the queues with no capacity bound built from
// linked bounded rings — the figure u1 line-up, whose Footprint is a
// live signal rather than a constant.
func UnboundedQueues() []string {
	return []string{"LSCQ", "UWCQ", "ChanUnbounded", "ChanShardedUnbounded"}
}

// --- The generic ringcore adapter ---

// coreQueue adapts any ringcore.Core to queueapi: both ring cores and
// the unbounded compositions over them are served by this one type. Handles come straight from Acquire —
// a ringcore.Handle already satisfies queueapi.Handle and the native
// queueapi.Batcher structurally.
type coreQueue struct {
	name string
	core ringcore.Core[uint64]
}

// newCoreBuilder adapts a ringcore build function to the registry's
// Builder shape.
func newCoreBuilder(name string, build func(Config) (ringcore.Core[uint64], error)) Builder {
	return func(cfg Config) (queueapi.Queue, error) {
		core, err := build(cfg.withDefaults())
		if err != nil {
			return nil, err
		}
		return &coreQueue{name: name, core: core}, nil
	}
}

func (w *coreQueue) Handle() (queueapi.Handle, error) {
	h, err := w.core.Acquire()
	if err != nil {
		return nil, err
	}
	return h, nil
}
func (w *coreQueue) Cap() uint64       { return w.core.Cap() }
func (w *coreQueue) Footprint() uint64 { return w.core.Footprint() }
func (w *coreQueue) Name() string      { return w.name }

// Stats satisfies queueapi.Statser through the core's own Stats; cores
// built without a sink report the zero snapshot.
func (w *coreQueue) Stats() metrics.Snapshot { return w.core.Stats() }

// Rings forwards the live linked-ring population of the unbounded
// cores (0 for bounded cores, which have exactly their one ring), so
// observability consumers can gauge growth without knowing the kind.
func (w *coreQueue) Rings() int {
	if r, ok := w.core.(interface{ Rings() int }); ok {
		return r.Rings()
	}
	return 0
}

// --- LCRQ ---

type lcrqQueue struct{ q *lcrq.Queue }
type lcrqHandle struct{ q *lcrq.Queue }

// newLCRQ builds the Morrison & Afek queue. It is excluded from the
// emulated-F&A (PowerPC) figures, as in the paper; construction under
// emulated F&A (EmulatedFAA or CountingFAA) fails so harnesses skip
// it explicitly.
func newLCRQ(cfg Config) (queueapi.Queue, error) {
	cfg = cfg.withDefaults()
	if cfg.Core.Mode.Emulated() {
		return nil, fmt.Errorf("lcrq: not available without CAS2 (the paper omits it on PowerPC)")
	}
	return &lcrqQueue{q: lcrq.New(lcrq.DefaultRingOrder)}, nil
}

func (w *lcrqQueue) Handle() (queueapi.Handle, error) { return &lcrqHandle{q: w.q}, nil }
func (w *lcrqQueue) Cap() uint64                      { return 0 }
func (w *lcrqQueue) Footprint() uint64 {
	return uint64(w.q.RingsAllocated()) * w.q.FootprintPerRing()
}
func (w *lcrqQueue) Name() string { return "LCRQ" }

func (h *lcrqHandle) Enqueue(v uint64) bool   { h.q.Enqueue(v); return true }
func (h *lcrqHandle) Dequeue() (uint64, bool) { return h.q.Dequeue() }

// --- YMC ---

type ymcQueue struct{ q *ymc.Queue }
type ymcHandle struct{ h *ymc.Handle }

// newYMC builds the Yang & Mellor-Crummey baseline.
func newYMC(cfg Config) (queueapi.Queue, error) {
	cfg = cfg.withDefaults()
	return &ymcQueue{q: ymc.New(cfg.MaxThreads)}, nil
}

func (w *ymcQueue) Handle() (queueapi.Handle, error) {
	h, err := w.q.Register()
	if err != nil {
		return nil, err
	}
	return &ymcHandle{h: h}, nil
}
func (w *ymcQueue) Cap() uint64 { return 0 }
func (w *ymcQueue) Footprint() uint64 {
	return uint64(w.q.SegsAllocated()) * (1 << ymc.SegOrder) * 24
}
func (w *ymcQueue) Name() string { return "YMC" }

func (h *ymcHandle) Enqueue(v uint64) bool   { h.h.Enqueue(v); return true }
func (h *ymcHandle) Dequeue() (uint64, bool) { return h.h.Dequeue() }

// --- CRTurn ---

type crturnQueue struct{ q *crturn.Queue }
type crturnHandle struct{ h *crturn.Handle }

// newCRTurn builds the Ramalhete & Correia wait-free baseline.
func newCRTurn(cfg Config) (queueapi.Queue, error) {
	cfg = cfg.withDefaults()
	return &crturnQueue{q: crturn.New(cfg.MaxThreads)}, nil
}

func (w *crturnQueue) Handle() (queueapi.Handle, error) {
	h, err := w.q.Register()
	if err != nil {
		return nil, err
	}
	return &crturnHandle{h: h}, nil
}
func (w *crturnQueue) Cap() uint64       { return 0 }
func (w *crturnQueue) Footprint() uint64 { return 0 }
func (w *crturnQueue) Name() string      { return "CRTurn" }

func (h *crturnHandle) Enqueue(v uint64) bool   { h.h.Enqueue(v); return true }
func (h *crturnHandle) Dequeue() (uint64, bool) { return h.h.Dequeue() }

// --- CCQueue ---

type ccqQueue struct{ q *ccq.Queue }
type ccqHandle struct{ h *ccq.Handle }

// newCCQueue builds the flat-combining baseline.
func newCCQueue(cfg Config) (queueapi.Queue, error) {
	cfg = cfg.withDefaults()
	return &ccqQueue{q: ccq.New(cfg.MaxThreads)}, nil
}

func (w *ccqQueue) Handle() (queueapi.Handle, error) {
	h, ok := w.q.Register()
	if !ok {
		return nil, fmt.Errorf("ccq: thread census exhausted")
	}
	return &ccqHandle{h: h}, nil
}
func (w *ccqQueue) Cap() uint64       { return 0 }
func (w *ccqQueue) Footprint() uint64 { return 0 }
func (w *ccqQueue) Name() string      { return "CCQueue" }

func (h *ccqHandle) Enqueue(v uint64) bool   { h.h.Enqueue(v); return true }
func (h *ccqHandle) Dequeue() (uint64, bool) { return h.h.Dequeue() }

// --- MSQueue ---

type msqQueue struct{ q *msq.Queue }
type msqHandle struct{ q *msq.Queue }

// newMSQueue builds the Michael & Scott baseline.
func newMSQueue(cfg Config) (queueapi.Queue, error) {
	return &msqQueue{q: msq.New()}, nil
}

func (w *msqQueue) Handle() (queueapi.Handle, error) { return &msqHandle{q: w.q}, nil }
func (w *msqQueue) Cap() uint64                      { return 0 }
func (w *msqQueue) Footprint() uint64                { return 0 }
func (w *msqQueue) Name() string                     { return "MSQueue" }

func (h *msqHandle) Enqueue(v uint64) bool   { h.q.Enqueue(v); return true }
func (h *msqHandle) Dequeue() (uint64, bool) { return h.q.Dequeue() }

// --- FAA pseudo-queue ---

type faaQueue struct{ q *faa.Queue }
type faaHandle struct{ q *faa.Queue }

// newFAA builds the F&A throughput ceiling. NOT a real queue; never
// feed it to the correctness checker.
func newFAA(cfg Config) (queueapi.Queue, error) {
	cfg = cfg.withDefaults()
	return &faaQueue{q: faa.New(cfg.Core.Mode)}, nil
}

func (w *faaQueue) Handle() (queueapi.Handle, error) { return &faaHandle{q: w.q}, nil }
func (w *faaQueue) Cap() uint64                      { return 0 }
func (w *faaQueue) Footprint() uint64                { return 0 }
func (w *faaQueue) Name() string                     { return "FAA" }

func (h *faaHandle) Enqueue(v uint64) bool   { h.q.Enqueue(v); return true }
func (h *faaHandle) Dequeue() (uint64, bool) { return h.q.Dequeue() }

// --- Blocking Chan facades ---

// chanQueue adapts the public wfqueue.Chan facade to queueapi. Its
// handles keep the nonblocking Queue/Handle contract (Enqueue/Dequeue
// map to TrySend/TryRecv) and add the queueapi.Waitable blocking
// surface; the queue side adds queueapi.Closer. wfqueue.ErrClosed
// aliases queueapi.ErrClosed, so blocking harnesses can match errors
// across the boundary.
type chanQueue struct {
	c    *wfqueue.Chan[uint64]
	name string
}

type chanHandle struct{ h *wfqueue.ChanHandle[uint64] }

// newChanBuilder adapts NewChan over the given backend to the
// registry's Builder shape, mapping cfg.Core onto the public options.
// The public API has one emulated mode, so CountingFAA builds an
// EmulatedFAA Chan.
func newChanBuilder(name string, backend wfqueue.Backend) Builder {
	return func(cfg Config) (queueapi.Queue, error) {
		cfg = cfg.withDefaults()
		o := cfg.Core
		opts := []wfqueue.Option{
			wfqueue.WithBackend(backend),
			wfqueue.WithPatience(o.EnqPatience, o.DeqPatience),
			wfqueue.WithHelpDelay(o.HelpDelay),
			wfqueue.WithMetrics(o.Metrics),
		}
		if o.Mode.Emulated() {
			opts = append(opts, wfqueue.WithEmulatedFAA())
		}
		c, err := wfqueue.NewChan[uint64](cfg.Capacity, cfg.MaxThreads, opts...)
		if err != nil {
			return nil, err
		}
		return &chanQueue{c: c, name: name}, nil
	}
}

func (w *chanQueue) Handle() (queueapi.Handle, error) {
	h, err := w.c.Handle()
	if err != nil {
		return nil, err
	}
	return &chanHandle{h: h}, nil
}
func (w *chanQueue) Cap() uint64       { return w.c.Cap() }
func (w *chanQueue) Footprint() uint64 { return w.c.Footprint() }
func (w *chanQueue) Name() string      { return w.name }
func (w *chanQueue) Close() error      { return w.c.Close() }

// Stats satisfies queueapi.Statser: the Chan's sink aggregates the
// backing core plus the park points' park/wake/parked-duration data.
func (w *chanQueue) Stats() metrics.Snapshot { return w.c.Stats() }

// Rings forwards the Chan's live linked-ring population (0 for the
// bounded backends), as coreQueue.Rings does for the nonblocking cores.
func (w *chanQueue) Rings() int { return w.c.Rings() }

// Enqueue and Dequeue keep the nonblocking contract (a closed Chan
// reads as full and, once drained, empty).
func (h *chanHandle) Enqueue(v uint64) bool {
	ok, _ := h.h.TrySend(v)
	return ok
}
func (h *chanHandle) Dequeue() (uint64, bool) {
	v, ok, _ := h.h.TryRecv()
	return v, ok
}

// EnqueueBatch and DequeueBatch keep the nonblocking queueapi.Batcher
// contract over the native batch reservation (TrySendMany/TryRecvMany).
func (h *chanHandle) EnqueueBatch(vs []uint64) int {
	n, _ := h.h.TrySendMany(vs)
	return n
}
func (h *chanHandle) DequeueBatch(out []uint64) int {
	n, _ := h.h.TryRecvMany(out)
	return n
}

// The queueapi.Waitable blocking surface.
func (h *chanHandle) Send(v uint64) error                         { return h.h.Send(v) }
func (h *chanHandle) SendCtx(ctx context.Context, v uint64) error { return h.h.SendCtx(ctx, v) }
func (h *chanHandle) Recv() (uint64, error)                       { return h.h.Recv() }
func (h *chanHandle) RecvCtx(ctx context.Context) (uint64, error) { return h.h.RecvCtx(ctx) }

// The queueapi.BatchWaitable blocking batch surface.
func (h *chanHandle) SendMany(vs []uint64) (int, error)  { return h.h.SendMany(vs) }
func (h *chanHandle) RecvMany(out []uint64) (int, error) { return h.h.RecvMany(out) }
