// Package benchfmt defines wcqbench/v1, the machine-readable result
// format shared by cmd/wcqbench (one File per run, pretty-printed) and
// cmd/wcqstressd (one File per snapshot interval, appended as JSON
// Lines). Keeping the schema in one place means the daemon's live
// snapshots and the bench's figure tables stay comparable point for
// point, and the CI smoke can validate either with the same code.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// Schema is the format identifier stamped into every File.
const Schema = "wcqbench/v1"

// File is one wcqbench/v1 record: a run header plus one Point per
// (figure, queue, threads) — or, for daemon snapshots, per workload.
type File struct {
	Schema     string  `json:"schema"`
	Time       string  `json:"time"` // RFC 3339
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Ops        int     `json:"ops"`
	Reps       int     `json:"reps"`
	Points     []Point `json:"points"`
}

// Point is one measurement. The bench keys points by
// (figure, queue, threads[, batch|burst]); the daemon stamps the
// figure "live" and reuses the same axes for its rolling interval.
type Point struct {
	Figure   string  `json:"figure"`
	Queue    string  `json:"queue"`
	Threads  int     `json:"threads"`
	Batch    int     `json:"batch,omitempty"`
	Burst    int     `json:"burst,omitempty"`
	MopsMin  float64 `json:"mops_min,omitempty"`
	MopsMean float64 `json:"mops_mean,omitempty"`
	// MopsMax is the best rep's throughput, kept for offline reading:
	// a single scheduler stall on a shared runner poisons a mean but not
	// a max. The relative perf smokes (smokeBatch, smokeWait in
	// cmd/wcqbench) compare MopsMean.
	MopsMax  float64 `json:"mops_max,omitempty"`
	MemoryMB float64 `json:"memory_mb,omitempty"`
	// FootprintMB is the queue's own Footprint() after the run: the
	// real summed allocation of the sharded compositions and the
	// post-run retention of the unbounded queues (see harness.Point).
	FootprintMB float64 `json:"footprint_mb,omitempty"`
	// Load is the offered-load fraction of the queue's calibrated
	// closed-loop capacity (open-loop figure l1 points only; 0
	// otherwise). 1.0 is the saturation knee by construction.
	Load float64 `json:"load,omitempty"`
	// OfferedMops is the open-loop arrival rate in millions of
	// transfers per second that Load resolved to on this host.
	OfferedMops float64 `json:"offered_mops,omitempty"`
	// Latency carries the coordinated-omission-safe end-to-end latency
	// percentiles of an open-loop point (enqueue intended-time to
	// dequeue) — or, on waiter-count (w1) points, the blocking-wait
	// ladder — in microseconds. Nil on closed-loop points.
	Latency *LatencyUS `json:"latency_us,omitempty"`
	Err     string     `json:"error,omitempty"`
}

// LatencyUS is the fixed percentile ladder every latency-carrying
// point reports, in microseconds. Values come from a log-bucketed
// metrics.Histogram, so each percentile carries its documented <=1/16
// relative error and Max is exact.
type LatencyUS struct {
	// P50, P90, P99 and P999 are the 50th/90th/99th/99.9th latency
	// percentiles in microseconds.
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	// Max is the largest observed latency in microseconds (exact).
	Max float64 `json:"max"`
	// Count is the number of recorded operations behind the ladder.
	Count uint64 `json:"count"`
	// RepP99 is each rep's own p99 in microseconds, in rep order; the
	// ladder above merges the reps. Optional: older logs omit it.
	RepP99 []float64 `json:"rep_p99,omitempty"`
}

// NewLatencyUS flattens a nanosecond histogram snapshot into the
// wcqbench/v1 microsecond percentile ladder; an empty snapshot yields
// nil, so callers can assign the result straight into Point.Latency.
func NewLatencyUS(h metrics.HistogramSnapshot) *LatencyUS {
	if h.Count == 0 {
		return nil
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	return &LatencyUS{
		P50:   us(h.Quantile(0.50)),
		P90:   us(h.Quantile(0.90)),
		P99:   us(h.Quantile(0.99)),
		P999:  us(h.Quantile(0.999)),
		Max:   us(h.Max),
		Count: h.Count,
	}
}

// validate checks the ladder invariants: a non-empty sample,
// percentiles that are nonnegative and monotone up to Max, and
// nonnegative per-rep p99s.
func (l *LatencyUS) validate() error {
	if l.Count == 0 {
		return fmt.Errorf("latency ladder with zero count")
	}
	prev, prevName := 0.0, "0"
	for _, p := range []struct {
		name string
		v    float64
	}{{"p50", l.P50}, {"p90", l.P90}, {"p99", l.P99}, {"p999", l.P999}, {"max", l.Max}} {
		if p.v < prev {
			return fmt.Errorf("latency %s %f < %s %f (percentiles not monotone)", p.name, p.v, prevName, prev)
		}
		prev, prevName = p.v, p.name
	}
	for i, v := range l.RepP99 {
		if v < 0 {
			return fmt.Errorf("latency rep %d p99 %f is negative", i, v)
		}
	}
	return nil
}

// New returns a File with the run header stamped (schema, wall time,
// GOMAXPROCS, CPU count) and no points yet.
func New(ops, reps int) File {
	return File{
		Schema:     Schema,
		Time:       time.Now().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Ops:        ops,
		Reps:       reps,
	}
}

// Validate checks the structural invariants every wcqbench/v1 consumer
// relies on: the schema tag, a parseable RFC 3339 timestamp, a sane
// header, and points that name their figure and queue with a positive
// thread count. Points carrying an error are exempt from the
// measurement checks — an errored point records that the queue could
// not run (e.g. LCRQ under emulation), not a measurement.
func (f *File) Validate() error {
	if f.Schema != Schema {
		return fmt.Errorf("benchfmt: schema %q, want %q", f.Schema, Schema)
	}
	if _, err := time.Parse(time.RFC3339, f.Time); err != nil {
		return fmt.Errorf("benchfmt: bad timestamp %q: %w", f.Time, err)
	}
	if f.GoMaxProcs < 1 || f.NumCPU < 1 {
		return fmt.Errorf("benchfmt: implausible host header (gomaxprocs %d, num_cpu %d)",
			f.GoMaxProcs, f.NumCPU)
	}
	for i, p := range f.Points {
		if p.Figure == "" || p.Queue == "" {
			return fmt.Errorf("benchfmt: point %d missing figure or queue: %+v", i, p)
		}
		if p.Threads < 1 {
			return fmt.Errorf("benchfmt: point %d (%s/%s) has thread count %d",
				i, p.Figure, p.Queue, p.Threads)
		}
		if p.Err != "" {
			continue
		}
		if p.MopsMean < 0 || p.MopsMin < 0 || p.MopsMin > p.MopsMean {
			return fmt.Errorf("benchfmt: point %d (%s/%s) has inconsistent throughput (min %f, mean %f)",
				i, p.Figure, p.Queue, p.MopsMin, p.MopsMean)
		}
		// MopsMax is optional (older logs omit it), but when present it
		// must bound the mean from above.
		if p.MopsMax != 0 && p.MopsMax < p.MopsMean {
			return fmt.Errorf("benchfmt: point %d (%s/%s) has inconsistent throughput (mean %f, max %f)",
				i, p.Figure, p.Queue, p.MopsMean, p.MopsMax)
		}
		if p.Load < 0 || p.OfferedMops < 0 {
			return fmt.Errorf("benchfmt: point %d (%s/%s) has negative offered load (load %f, offered %f)",
				i, p.Figure, p.Queue, p.Load, p.OfferedMops)
		}
		if p.Latency != nil {
			if err := p.Latency.validate(); err != nil {
				return fmt.Errorf("benchfmt: point %d (%s/%s): %w", i, p.Figure, p.Queue, err)
			}
		}
	}
	return nil
}

// Append validates f and appends it to path as one compact JSON line
// (the daemon's snapshot log format: one File per interval).
func Append(path string, f File) error {
	if err := f.Validate(); err != nil {
		return err
	}
	out, err := json.Marshal(f)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer fh.Close()
	_, err = fh.Write(append(out, '\n'))
	return err
}

// ValidateStream reads JSON-Lines wcqbench/v1 records from r,
// validating each, and returns how many it saw. It is the CI-smoke
// side of Append: a snapshot log passes iff every line parses and
// validates. Blank lines are skipped.
func ValidateStream(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f File
		if err := json.Unmarshal(line, &f); err != nil {
			return n, fmt.Errorf("benchfmt: record %d does not parse: %w", n+1, err)
		}
		if err := f.Validate(); err != nil {
			return n, fmt.Errorf("benchfmt: record %d: %w", n+1, err)
		}
		n++
	}
	return n, sc.Err()
}

// ValidateFile runs ValidateStream over the file at path.
func ValidateFile(path string) (int, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	return ValidateStream(fh)
}
