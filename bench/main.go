// Command bench is the repository's benchmark. It drives four
// two-goroutine workloads through the public wfqueue API only, checks
// that every value is delivered exactly once and in per-producer order,
// and prints every end-to-end metric by name and unit, each as the
// median, quartiles and count over its reps. With -trace it also runs
// traced reps, alternating with the untraced ones, and a single-goroutine
// ladder of the layers, and prints the per-layer metrics.
//
//	go run . -seed 1                  # all workloads, end to end
//	go run . -seed 1 -trace           # plus the per-layer metrics and spans
//	go run . -workload pairwise       # one workload
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (the end-to-end ones, or with
// -trace the per-layer ones) by name with value and unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// gomaxprocs is fixed: every workload runs exactly two goroutines, one
// per CPU, so the numbers measure cross-core contention.
const gomaxprocs = 2

// ladderSeconds is the ladder's length with -trace: seven rungs of 1 s.
const ladderSeconds = 7

type config struct {
	seed    uint64
	reps    int           // timed reps per workload and pass
	repLen  time.Duration // length of one rep
	rungLen time.Duration // ladder time per rung, with trace
	trace   bool
}

// newConfig spreads seconds of measurement per workload over 2 s reps.
// With trace the reps alternate untraced and traced, and the ladder
// takes ladderSeconds of the budget.
func newConfig(seed uint64, seconds int, trace bool) config {
	c := config{seed: seed, repLen: min(2*time.Second, time.Duration(seconds)*time.Second), rungLen: time.Second, trace: trace}
	budget := time.Duration(seconds) * time.Second
	if trace {
		c.reps = max(1, int((budget-ladderSeconds*time.Second)/(2*c.repLen)))
	} else {
		c.reps = max(1, int(budget/c.repLen))
	}
	return c
}

type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps"`
	RepSeconds float64 `json:"rep_seconds"`
	Trace      bool    `json:"trace"`
}

func newProvenance(cfg config) provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: cfg.seed, Reps: cfg.reps, RepSeconds: cfg.repLen.Seconds(), Trace: cfg.trace}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// run measures the workloads: one untimed warm-up rep each, then the
// timed reps round-robin across workloads (rep 1 of each, then rep 2,
// and so on), so drift over the run affects every workload alike.
func run(cfg config, ws []*workload) ([]*workloadRun, error) {
	runtime.GOMAXPROCS(gomaxprocs)
	b := newBench(cfg)
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w, series: map[string][]float64{}}
		if err := b.runRep(runs[i], -1, false); err != nil {
			return nil, err
		}
	}
	for i := range cfg.reps {
		for _, run := range runs {
			if err := b.runRep(run, i, false); err != nil {
				return nil, err
			}
			if cfg.trace {
				if err := b.runRep(run, i, true); err != nil {
					return nil, err
				}
			}
		}
	}
	var ladder map[string][]float64
	if cfg.trace {
		var bad uint64
		var err error
		if ladder, bad, err = runLadder(int64(cfg.rungLen / ladderChunks)); err != nil {
			return nil, err
		}
		for _, run := range runs {
			run.failed += bad
		}
	}
	for _, run := range runs {
		run.finish(ladder)
	}
	return runs, nil
}

// runRep builds a fresh queue and drives one rep of run's workload;
// index -1 is the untimed warm-up.
func (b *bench) runRep(run *workloadRun, index int, traced bool) error {
	runtime.GC()
	h := fnv.New64a()
	h.Write([]byte(run.w.name))
	for i := range b.workers {
		b.workers[i].reset()
	}
	// A traced rep draws the same inputs as the untraced rep it pairs with.
	r := &rep{traced: traced, rng: rand.New(rand.NewPCG(b.cfg.seed, h.Sum64()+uint64(index+1)))}
	watchdog := time.AfterFunc(5*b.cfg.repLen+20*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s rep %d did not finish\n", run.w.name, index)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := run.w.run(b, r); err != nil {
		return fmt.Errorf("%s: %w", run.w.name, err)
	}
	attempted, failed := b.failures()
	run.attempted += attempted
	run.failed += failed
	if index < 0 {
		return nil
	}
	b.measure(run, r)
	if traced {
		run.spans = slices.Concat(b.workers[0].spans, b.workers[1].spans)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the summary line: the end-to-end metrics, or the
// per-layer ones when perLayer. With several workloads each name is
// prefixed with its workload and a slash.
func result(runs []*workloadRun, perLayer bool) resultLine {
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, run := range runs {
		line.Attempted += run.attempted
		line.Failed += run.failed
		for _, m := range specs {
			if m.perLayer != perLayer {
				continue
			}
			name := m.name
			if len(runs) > 1 {
				name = run.w.name + "/" + name
			}
			line.Metrics[name] = metricValue{run.sum[m.name].Median, m.unit}
		}
	}
	line.Correct = line.Failed == 0
	return line
}

type metricSummary struct {
	summary
	Unit string `json:"unit"`
}

type workloadResult struct {
	Attempted      uint64                   `json:"attempted"`
	Failed         uint64                   `json:"failed"`
	FailedOpsRatio float64                  `json:"failed_ops_ratio"`
	Metrics        map[string]metricSummary `json:"metrics"`
}

type resultsFile struct {
	Schema     string                    `json:"schema"`
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

func writeResults(path string, prov provenance, runs []*workloadRun) error {
	f := resultsFile{Schema: "wcq-bench/v1", Provenance: prov, Workloads: map[string]workloadResult{}}
	for _, run := range runs {
		wr := workloadResult{Attempted: run.attempted, Failed: run.failed,
			FailedOpsRatio: ratio(float64(run.failed), float64(run.attempted)), Metrics: map[string]metricSummary{}}
		for _, m := range specs {
			if s, ok := run.sum[m.name]; ok {
				wr.Metrics[m.name] = metricSummary{s, m.unit}
			}
		}
		f.Workloads[run.w.name] = wr
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func printTable(out io.Writer, prov provenance, runs []*workloadRun) {
	dirty := ""
	if prov.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(out, "commit %s%s  %s  GOMAXPROCS %d  NumCPU %d  seed %d  reps %d x %gs  trace %v\n",
		prov.Commit, dirty, prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.Seed, prov.Reps, prov.RepSeconds, prov.Trace)
	fmt.Fprintf(out, "%-18s %-32s %14s %-16s %12s %12s %7s %3s\n", "workload", "metric", "median", "unit", "q1", "q3", "iqr%", "n")
	for _, run := range runs {
		for _, m := range specs {
			s, ok := run.sum[m.name]
			if !ok || (m.perLayer && !prov.Trace) {
				continue
			}
			fmt.Fprintf(out, "%-18s %-32s %14.6g %-16s %12.6g %12.6g %7.1f %3d\n",
				run.w.name, m.name, s.Median, m.unit, s.Q1, s.Q3, s.iqrPct(), s.N)
		}
		fmt.Fprintf(out, "%-18s %-32s %14.6g %-16s (%d of %d transfers)\n", run.w.name, "failed_ops_ratio",
			ratio(float64(run.failed), float64(run.attempted)), "ratio", run.failed, run.attempted)
	}
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	only := flag.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed for the payloads and the open-loop schedule")
	seconds := flag.Int("seconds", 20, "seconds measured per workload")
	trace := flag.Bool("trace", false, "also run traced reps and the layer ladder, and report the per-layer metrics")
	traceOut := flag.String("trace-out", filepath.Join(os.TempDir(), "wcq-bench-spans.jsonl"), "spans file written with -trace")
	out := flag.String("out", filepath.Join(os.TempDir(), "wcq-bench-results.json"), "results file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *only != "all" {
		ws = nil
		for _, w := range workloads {
			if w.name == *only {
				ws = []*workload{w}
			}
		}
		if ws == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			os.Exit(2)
		}
	}

	cfg := newConfig(*seed, *seconds, *trace)
	runs, err := run(cfg, ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	prov := newProvenance(cfg)
	printTable(os.Stdout, prov, runs)
	if err := writeResults(*out, prov, runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *trace {
		if err := writeSpans(*traceOut, runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(result(runs, *trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	for _, run := range runs {
		if run.failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d failed transfers\n", run.w.name, run.failed)
			os.Exit(1)
		}
	}
}
