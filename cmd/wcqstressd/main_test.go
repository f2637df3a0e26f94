package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clihelper"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/ringcore"
)

// liveDaemon builds a daemon over a small blocking Chan with metrics
// on and pushes some traffic through it, so the exporters have real
// numbers to render.
func liveDaemon(t *testing.T) *daemon {
	t.Helper()
	q, err := queues.New("Chan", queues.Config{
		Capacity:   256,
		MaxThreads: 8,
		Core:       ringcore.Options{Metrics: metrics.New()},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon("Chan", q, 2)
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if !h.Enqueue(i) {
			t.Fatal("enqueue failed on an empty chan")
		}
		if _, ok := h.Dequeue(); !ok {
			t.Fatal("dequeue failed after enqueue")
		}
		d.slots[0].ops.Add(2)
		d.hists[0].Record(uint64(100 + i))
	}
	return d
}

func TestPromTextShape(t *testing.T) {
	out := liveDaemon(t).promString()
	for _, want := range []string{
		`wcqstressd_ops_total{queue="Chan"} 200`,
		`wcqstressd_events_total{queue="Chan",event="park"}`,
		`wcqstressd_events_total{queue="Chan",event="close_drain"}`,
		`wcqstressd_footprint_bytes{queue="Chan"}`,
		`wcqstressd_op_latency_seconds{queue="Chan",quantile="0.99"}`,
		`wcqstressd_parked_seconds_count{queue="Chan"} 0`,
		"# TYPE wcqstressd_ops_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus text missing %q in:\n%s", want, out)
		}
	}
}

func TestVarsShape(t *testing.T) {
	d := liveDaemon(t)
	m, ok := d.vars().(map[string]any)
	if !ok {
		t.Fatalf("vars() is %T, want a map", d.vars())
	}
	if m["ops_total"].(uint64) != 200 {
		t.Fatalf("ops_total %v, want 200", m["ops_total"])
	}
	events := m["events"].(map[string]uint64)
	if _, ok := events["park"]; !ok {
		t.Fatalf("events map missing park: %v", events)
	}
	lat := m["op_latency_ns"].(map[string]uint64)
	if lat["count"] != 100 || lat["p50"] == 0 {
		t.Fatalf("latency quantiles implausible: %v", lat)
	}
}

func TestSnapshotFileValidates(t *testing.T) {
	d := liveDaemon(t)
	f := d.snapshotFile(12345, 2*time.Second)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	p := f.Points[0]
	if p.Figure != "live" || p.Queue != "Chan" || p.MopsMean <= 0 {
		t.Fatalf("snapshot point %+v", p)
	}
}

func TestSnapshotFileZeroIntervalValidates(t *testing.T) {
	// The final shutdown snapshot can cover an almost-empty interval;
	// it must still validate (zero throughput is legal).
	d := liveDaemon(t)
	f := d.snapshotFile(0, 0)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerScenario(t *testing.T) {
	// A zero duration still runs one round per queue: a nonblocking
	// round on a ring queue, a blocking round with batches capped at 8
	// on a Chan, and a blocking run on a queue with no close surface is
	// a SKIP.
	cases := []struct {
		queue    string
		blocking bool
		batch    int
	}{
		{"SCQ", false, 0},
		{"Chan", true, 8},
		{"wCQ", true, 0},
	}
	for _, c := range cases {
		shared := &clihelper.Flags{Capacity: 64, Blocking: c.blocking, Batch: c.batch}
		if err := runChecker(c.queue, shared, shared.Config(8), 4, 0); err != nil {
			t.Fatalf("%s: %v", c.queue, err)
		}
	}
}

func TestCheckerUnknownQueueFails(t *testing.T) {
	// A name the registry lacks (a typo, or a deleted queue) is an
	// error, not a SKIP, so a CI step naming it fails; a registered
	// queue the configuration cannot build stays a SKIP.
	shared := &clihelper.Flags{Capacity: 64}
	for _, name := range []string{"Sharded", "wcq"} {
		err := runChecker(name, shared, shared.Config(8), 2, 0)
		if err == nil || !strings.Contains(err.Error(), "unknown queue") {
			t.Fatalf("-queue %s: err = %v, want an unknown-queue error", name, err)
		}
	}
	emulated := &clihelper.Flags{Capacity: 64, Emulate: true}
	if err := runChecker("LCRQ", emulated, emulated.Config(8), 2, 0); err != nil {
		t.Fatalf("unbuildable LCRQ under emulated F&A: %v, want a SKIP", err)
	}
}

func TestUnknownScenarioListsValidOnes(t *testing.T) {
	for _, s := range []string{"concurrent_stress", "memory_stress", "high_frequency", "all"} {
		err := runScenario(s, "wCQ", &clihelper.Flags{}, queues.Config{}, 2, time.Millisecond)
		if err == nil {
			t.Fatalf("unknown scenario %q accepted", s)
		}
		if !strings.Contains(err.Error(), "checker") {
			t.Fatalf("error %q does not list checker", err)
		}
	}
}
