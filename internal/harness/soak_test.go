//go:build soak

package harness

import (
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/queues"
)

// The soak tier: full-length production-readiness scenarios, built
// only with -tags soak (CI's soak-smoke job runs them under -race).
// Durations are sized so the whole file is a ~30-second miniature of a
// production soak; raise them locally for a real one.

// soakQueues is the production line-up: the paper's ring, its sharded
// composition, an unbounded composition, and a blocking facade.
var soakQueues = []string{"wCQ", "Sharded", "UWCQ", "Chan"}

// TestSoakCheckerRounds sustains mixed scalar+batch traffic at 8
// goroutines for 3 s per queue as back-to-back checker rounds, each on
// a fresh queue, so every round ends in the exactly-once sweep and the
// per-producer FIFO check.
func TestSoakCheckerRounds(t *testing.T) {
	const threads = 8
	producers, consumers := EvenSplit(threads)
	cfg := checker.Config{Producers: producers, Consumers: consumers, PerProducer: 5000}
	for _, name := range soakQueues {
		name := name
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			rounds := 0
			for ; time.Since(start) < 3*time.Second; rounds++ {
				q, err := queues.New(name, queues.Config{Capacity: 1 << 10, MaxThreads: threads + 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := checker.Run(q, cfg); err != nil {
					t.Fatalf("round %d: %v", rounds, err)
				}
			}
			t.Logf("%s: %d rounds of %d values in %v", name, rounds, producers*cfg.PerProducer, time.Since(start))
		})
	}
}

func TestSoakMemoryStress(t *testing.T) {
	for _, name := range soakQueues {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := MemoryStress(name, queues.Config{Capacity: 256}, StressOpts{
				Threads: 4, Duration: 3 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The job's headline assertion: after the final drain the
			// footprint is back at the first-drain baseline (within the
			// documented 2x + 0.25MB band).
			if res.FootprintMB > res.BaselineMB*2+0.25 {
				t.Fatalf("footprint did not return to baseline after drain: final %.3f MB, baseline %.3f MB",
					res.FootprintMB, res.BaselineMB)
			}
			t.Logf("%s: %d cycles, baseline %.3f MB, final %.3f MB", name, res.Cycles, res.BaselineMB, res.FootprintMB)
		})
	}
}
