// Command wcqstressd is a long-running stress daemon with live
// observability: it drives a configurable registry workload forever
// (or for -duration) and serves the queue's internal metrics — slow
// paths, threshold resets, steals, ring turnover, park/wake traffic,
// op-latency and parked-duration percentiles, Footprint and ring
// population — over HTTP while the stress runs.
//
//	wcqstressd                                  # Chan over wCQ, GOMAXPROCS workers
//	wcqstressd -queue UWCQ -capacity 64         # unbounded: heavy ring turnover
//	wcqstressd -queue ChanSharded               # four wCQ shards under parking
//	wcqstressd -addr :9100 -interval 2s -snapshots snap.jsonl
//	wcqstressd -duration 30s                    # bounded soak (CI smoke)
//	wcqstressd -validate snap.jsonl             # check a snapshot log and exit
//	wcqstressd -scenario checker -queue all -duration 2s     # correctness
//	wcqstressd -scenario checker -queue all -slowpath        # wCQ helped paths
//	wcqstressd -scenario checker -queue UWCQ -capacity 64    # ring turnover
//	wcqstressd -scenario checker -blocking -batch 16 -queue all
//
// The checker, the one -scenario, is the long validation run: rounds
// of the MPMC correctness checker (no loss, no duplication,
// per-producer FIFO) on a fresh queue each, until -duration elapses,
// for each queue -queue names. Every round mixes scalar and batch
// operations; -batch N caps the batch length (default 16). With
// -blocking the rounds drive the blocking surface and end in Close and
// a drain, and "all" means every Chan facade instead of every real
// queue. A queue the flags cannot build is a SKIP, not a failure.
//
// Endpoints:
//
//	/debug/vars   expvar JSON (key "wcqstressd")
//	/metrics      Prometheus text exposition
//
// With -snapshots, one wcqbench/v1 record (figure "live") is appended
// per interval as a JSON line, so the same tooling that reads bench
// results can plot a soak. SIGINT/SIGTERM closes the queue, drains the
// workers, appends a final snapshot and exits 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/checker"
	"repro/internal/clihelper"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/queues"
)

func main() {
	var (
		queueName = flag.String("queue", "Chan", "registry queue to stress (wcqstressd -queue ? lists them)")
		addr      = flag.String("addr", "127.0.0.1:8377", "HTTP listen address for /metrics and /debug/vars")
		workers   = flag.Int("workers", 0, "stress goroutines (0 = GOMAXPROCS, minimum 2)")
		interval  = flag.Duration("interval", 5*time.Second, "snapshot/append interval")
		snapshots = flag.String("snapshots", "", "append one wcqbench/v1 JSON line per interval to this file")
		duration  = flag.Duration("duration", 0, "total run time (0 = until SIGINT/SIGTERM)")
		validate  = flag.String("validate", "", "validate a wcqbench/v1 snapshot file and exit")
		scenario  = flag.String("scenario", "", "run the checker scenario (the only one) against -queue and exit")
	)
	shared := clihelper.Register(flag.CommandLine, 1<<8)
	flag.Parse()

	if *validate != "" {
		n, err := benchfmt.ValidateFile(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wcqstressd: %s invalid after %d records: %v\n", *validate, n, err)
			os.Exit(1)
		}
		fmt.Printf("wcqstressd: %s ok (%d records)\n", *validate, n)
		return
	}
	if *queueName == "?" {
		fmt.Println(queues.Names())
		return
	}

	n := *workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 2 {
		n = 2
	}
	cfg := shared.Config(n + 4)

	if *scenario != "" {
		if err := runScenario(*scenario, *queueName, shared, cfg, n, *duration); err != nil {
			fmt.Fprintln(os.Stderr, "wcqstressd: scenario FAIL:", err)
			os.Exit(1)
		}
		return
	}
	// The daemon exists to watch the internals: the sink is always on,
	// whatever -metrics says.
	if cfg.Core.Metrics == nil {
		cfg.Core.Metrics = metrics.New()
	}
	q, err := queues.New(*queueName, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcqstressd:", err)
		os.Exit(2)
	}

	d := newDaemon(*queueName, q, n)
	expvar.Publish("wcqstressd", expvar.Func(d.vars))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.promText(w)
	})
	srv := &http.Server{Addr: *addr}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *duration > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *duration)
		defer tcancel()
	}

	wg, err := d.startWorkers()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcqstressd:", err)
		os.Exit(1)
	}
	fmt.Printf("wcqstressd: stressing %s with %d workers, serving http://%s/metrics\n",
		*queueName, n, *addr)

	// Snapshot loop: one wcqbench/v1 line per interval, plus a console
	// heartbeat so an attached terminal sees progress.
	var lastOps atomic.Uint64
	lastT := time.Now()
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	appendSnapshot := func() {
		now := time.Now()
		dt := now.Sub(lastT)
		lastT = now
		ops := d.ops()
		delta := ops - lastOps.Load()
		lastOps.Store(ops)
		f := d.snapshotFile(delta, dt)
		if *snapshots != "" {
			if err := benchfmt.Append(*snapshots, f); err != nil {
				fmt.Fprintln(os.Stderr, "wcqstressd: snapshot append:", err)
			}
		}
		fmt.Printf("wcqstressd: %.2f Mops/s, %d ops total, footprint %d B\n",
			f.Points[0].MopsMean, ops, q.Footprint())
	}
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case err := <-serveErr:
			fmt.Fprintln(os.Stderr, "wcqstressd: http:", err)
			os.Exit(1)
		case <-tick.C:
			appendSnapshot()
		}
	}

	// Graceful shutdown: stop the workers (closing the queue unparks
	// blocking ones), drain, record the final partial interval, then
	// stop serving.
	d.stop.Store(true)
	if c, ok := q.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "wcqstressd: close:", err)
		}
	}
	wg.Wait()
	appendSnapshot()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "wcqstressd: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("wcqstressd: clean shutdown")
}

// runScenario runs the named scenario against the selected queue. The
// checker is the only one: any loss, duplication or order violation
// surfaces as its error and a nonzero exit.
func runScenario(scenario, queueName string, shared *clihelper.Flags, cfg queues.Config, threads int, duration time.Duration) error {
	if scenario != "checker" {
		return fmt.Errorf("unknown scenario %q (want checker)", scenario)
	}
	if duration <= 0 {
		duration = 5 * time.Second
	}
	return runChecker(queueName, shared, cfg, threads, duration)
}

// checkerPerProducer is the number of values each producer sends in
// one checker round.
const checkerPerProducer = 20000

// runChecker runs checker rounds on each queue the selection names,
// splitting the workers evenly into producers and consumers, until
// duration elapses per queue (at least one round each). A name the
// registry does not have is an error, so a mistyped queue fails the
// run; a registered queue this configuration cannot build is a SKIP.
func runChecker(selected string, shared *clihelper.Flags, cfg queues.Config, threads int, duration time.Duration) error {
	names := shared.QueueNames(selected)
	for _, name := range names {
		if !slices.Contains(queues.Names(), name) {
			return fmt.Errorf("unknown queue %q (have %v)", name, queues.Names())
		}
	}
	producers, consumers := harness.EvenSplit(threads)
	ccfg := checker.Config{
		Producers:   producers,
		Consumers:   consumers,
		PerProducer: checkerPerProducer,
		Batch:       shared.Batch,
		Blocking:    shared.Blocking,
	}
	for _, name := range names {
		start := time.Now()
		rounds := 0
		for ; rounds == 0 || time.Since(start) < duration; rounds++ {
			q, err := queues.New(name, cfg)
			if err != nil {
				fmt.Printf("wcqstressd: checker/%s SKIP (%v)\n", name, err)
				break
			}
			if _, ok := q.(queueapi.Closer); shared.Blocking && !ok {
				fmt.Printf("wcqstressd: checker/%s SKIP (not a blocking queue; use one of %v with -blocking)\n",
					name, queues.BlockingQueues())
				break
			}
			if err := checker.Run(q, ccfg); err != nil {
				return fmt.Errorf("checker/%s round %d: %w", name, rounds, err)
			}
		}
		if rounds > 0 {
			fmt.Printf("wcqstressd: checker/%s ok: %d rounds of %d values in %v\n",
				name, rounds, ccfg.Producers*ccfg.PerProducer, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
