// Package clihelper centralizes the queue-construction flag plumbing
// shared by cmd/wcqbench and cmd/wcqstressd, so the two tools register
// the same flags with the same meanings and cannot drift. That
// includes the composition dimensions: -shards (how many sub-queues)
// and -ring (which ring core inside them) are declared once here, so
// the kind x composition matrix is spelled identically everywhere.
package clihelper

import (
	"flag"
	"fmt"
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
	// UWCQ, ShardedUnbounded and their Chan facades).
	Capacity uint64
	// Shards is the shard count for the sharded compositions and
	// their Chan facades (0 = the default 4).
	Shards int
	// Ring names the ring kind inside the sharded compositions and
	// ChanUnbounded ("wCQ" or "SCQ"; empty = wCQ). Fixed-kind queue
	// names (wCQ, SCQ, LSCQ, UWCQ) ignore it.
	Ring string
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
	fs.IntVar(&f.Shards, "shards", 0, "shard count for the sharded compositions / sharded Chans (0 = default 4)")
	fs.StringVar(&f.Ring, "ring", "", "ring kind inside sharded compositions: wCQ (default) or SCQ")
	fs.IntVar(&f.Batch, "batch", 0, "> 1: drive batched enqueue/dequeue with this batch size")
	fs.BoolVar(&f.Emulate, "emulate", false, "CAS-emulated F&A (PowerPC mode)")
	fs.BoolVar(&f.Slowpath, "slowpath", false, "wCQ: patience 1 + eager helping (forces the helped slow paths)")
	fs.BoolVar(&f.Blocking, "blocking", false, "exercise the blocking Chan facades (parked Send/Recv, graceful close)")
	fs.BoolVar(&f.Metrics, "metrics", false, "enable the internal metrics sink on every constructed queue (measures the instrumented configuration)")
	return f
}

// RingKind resolves the -ring flag to a ringcore.Kind (wCQ when the
// flag is unset); an unknown name is a usage error.
func (f *Flags) RingKind() (ringcore.Kind, error) {
	if f.Ring == "" {
		return ringcore.KindWCQ, nil
	}
	k, err := ringcore.KindByName(f.Ring)
	if err != nil {
		return 0, fmt.Errorf("-ring: %w", err)
	}
	return k, nil
}

// Config translates the flag values into a queues.Config with the
// given handle budget. The error is a usage error (e.g. an unknown
// -ring kind).
func (f *Flags) Config(maxThreads int) (queues.Config, error) {
	kind, err := f.RingKind()
	if err != nil {
		return queues.Config{}, err
	}
	cfg := queues.Config{
		Capacity:   f.Capacity,
		MaxThreads: maxThreads,
		Shards:     f.Shards,
		Ring:       kind,
	}
	if f.Emulate {
		cfg.Mode = atomicx.EmulatedFAA
	}
	if f.Metrics {
		cfg.Metrics = metrics.New()
	}
	cfg.Core = f.CoreOptions()
	return cfg, nil
}

// CoreOptions returns the ring-core tuning implied by the flags (nil
// when the defaults apply).
func (f *Flags) CoreOptions() *ringcore.Options {
	if !f.Slowpath {
		return nil
	}
	return &ringcore.Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1}
}

// ParseFloatList parses a comma-separated list of positive floats —
// the -loads flag format ("0.25,0.5,0.9,1.1"). An empty string yields
// nil (use the figure's default sweep).
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
		if v <= 0 {
			return nil, fmt.Errorf("clihelper: list values must be positive, got %g", v)
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
