// Package clihelper centralizes the queue-construction flag plumbing
// shared by cmd/wcqbench and cmd/wcqstressd, so the two tools register
// the same flags with the same meanings and cannot drift.
package clihelper

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/ringcore"
)

// Flags holds the queue-construction flag values common to the CLIs.
type Flags struct {
	// Capacity is the ring capacity: the total bound for bounded
	// queues, the per-ring size for the unbounded variants (LSCQ,
	// UWCQ, ChanUnbounded and ChanShardedUnbounded).
	Capacity uint64
	// Batch > 1 drives batched enqueue/dequeue paths.
	Batch int
	// Emulate selects CAS-emulated F&A (the PowerPC configuration).
	Emulate bool
	// Slowpath forces wCQ's helped paths (patience 1, eager helping).
	Slowpath bool
	// Blocking exercises the blocking Chan facades (Send/Recv with
	// parking and graceful close) instead of the nonblocking queues.
	Blocking bool
	// Metrics gives each constructed queue a live metrics sink, so the
	// run measures (and can report) the instrumented configuration.
	Metrics bool
}

// Register installs the shared queue-construction flags on fs. The
// default capacity differs per tool (the bench uses the paper's 2^16,
// the stresser a small ring that exercises full/empty transitions),
// so it is a parameter.
func Register(fs *flag.FlagSet, defaultCapacity uint64) *Flags {
	f := &Flags{}
	fs.Uint64Var(&f.Capacity, "capacity", defaultCapacity, "ring capacity (total for bounded queues, per-ring for the unbounded variants)")
	fs.IntVar(&f.Batch, "batch", 0, "> 1: drive batched enqueue/dequeue with this batch size")
	fs.BoolVar(&f.Emulate, "emulate", false, "CAS-emulated F&A (PowerPC mode)")
	fs.BoolVar(&f.Slowpath, "slowpath", false, "wCQ: patience 1 + eager helping (forces the helped slow paths)")
	fs.BoolVar(&f.Blocking, "blocking", false, "exercise the blocking Chan facades (parked Send/Recv, graceful close)")
	fs.BoolVar(&f.Metrics, "metrics", false, "enable the internal metrics sink on every constructed queue (measures the instrumented configuration)")
	return f
}

// Config translates the flag values into a queues.Config with the
// given handle budget.
func (f *Flags) Config(maxThreads int) queues.Config {
	cfg := queues.Config{Capacity: f.Capacity, MaxThreads: maxThreads, Core: f.CoreOptions()}
	if f.Metrics {
		cfg.Core.Metrics = metrics.New()
	}
	return cfg
}

// CoreOptions returns the ring tuning implied by -emulate and
// -slowpath (patience 1 and eager helping); the zero value, native
// F&A and the paper's defaults, without them. It carries no sink:
// Config adds one per queue under -metrics.
func (f *Flags) CoreOptions() ringcore.Options {
	var o ringcore.Options
	if f.Emulate {
		o.Mode = atomicx.EmulatedFAA
	}
	if f.Slowpath {
		o.EnqPatience, o.DeqPatience, o.HelpDelay = 1, 1, 1
	}
	return o
}

// ParseFloatList parses a comma-separated list of positive finite
// floats — the -loads flag format ("0.25,0.5,0.9,1.1"). An empty
// string yields nil (use the figure's default sweep).
func ParseFloatList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("clihelper: bad float %q in list: %w", p, err)
		}
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("clihelper: list values must be positive and finite, got %g", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseIntList parses a comma-separated list of positive integers —
// the -waiters flag format ("8,64,256,1024"). An empty string yields
// nil (use the figure's default sweep).
func ParseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("clihelper: bad integer %q in list: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("clihelper: list values must be positive, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// QueueNames expands a -queue selection ("all" or a concrete name)
// honoring the blocking flag: "all" means every real queue normally
// and every Chan facade under -blocking.
func (f *Flags) QueueNames(selected string) []string {
	if selected != "all" {
		return []string{selected}
	}
	if f.Blocking {
		return queues.BlockingQueues()
	}
	return queues.RealQueues()
}
