package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/queues"
)

// stressDuration scales the scenarios for the regular suite: a quick
// pulse under -short, a substantial slice otherwise. The full-length
// tier lives in soak_test.go behind the soak build tag.
func stressDuration(t *testing.T) time.Duration {
	t.Helper()
	if testing.Short() {
		return 100 * time.Millisecond
	}
	return 300 * time.Millisecond
}

func TestStressScenarioNamesDispatch(t *testing.T) {
	names := StressScenarioNames()
	if len(names) != 2 {
		t.Fatalf("have %d scenarios, want 2", len(names))
	}
	for _, s := range names {
		s := s
		t.Run(s, func(t *testing.T) {
			res, err := RunStress(s, "wCQ", queues.Config{Capacity: 256}, StressOpts{
				Threads: 2, Duration: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Transfers == 0 {
				t.Fatal("scenario moved no values")
			}
		})
	}
	if _, err := RunStress("fork_bomb", "wCQ", queues.Config{}, StressOpts{}); err == nil {
		t.Fatal("unknown scenario accepted")
	} else if !strings.Contains(err.Error(), "memory_stress") {
		t.Fatalf("error does not list the valid scenarios: %v", err)
	}
}

func TestMemoryStressHoldsFootprintBaseline(t *testing.T) {
	// The unbounded queues are the ones with something to leak: their
	// footprint is live (outer-list segments), so a retained segment
	// chain would break the post-drain baseline bound.
	for _, name := range []string{"UWCQ", "LSCQ", "ChanUnbounded", "wCQ"} {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := MemoryStress(name, queues.Config{Capacity: 128}, StressOpts{
				Threads: 2, Duration: stressDuration(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles < 2 {
				t.Fatalf("only %d fill/drain cycles completed", res.Cycles)
			}
			if res.FootprintMB > res.BaselineMB*2+0.25 {
				t.Fatalf("final footprint %.3f MB above baseline %.3f MB bound", res.FootprintMB, res.BaselineMB)
			}
		})
	}
}

func TestHighFrequencyMakesProgress(t *testing.T) {
	for _, name := range []string{"wCQ", "SCQ", "Chan"} {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := HighFrequency(name, queues.Config{}, StressOpts{
				Threads: 4, Duration: stressDuration(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Transfers == 0 {
				t.Fatal("no transfers at high frequency")
			}
		})
	}
}
