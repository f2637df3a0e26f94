package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/clihelper"
	"repro/internal/harness"
)

// w1Row is one measured w1 point: mean throughput and wait p99. A
// row without repP99 stands for one rep whose own p99 is p99US.
type w1Row struct {
	queue   string
	waiters int
	mops    float64
	p99US   float64
	repP99  []float64
}

func w1Points(rows []w1Row) []benchfmt.Point {
	pts := make([]benchfmt.Point, len(rows))
	for i, r := range rows {
		reps := r.repP99
		if reps == nil {
			reps = []float64{r.p99US}
		}
		pts[i] = benchfmt.Point{
			Figure:   "w1",
			Queue:    r.queue,
			Threads:  r.waiters,
			MopsMin:  r.mops,
			MopsMean: r.mops,
			Latency:  &benchfmt.LatencyUS{P50: 0.5, P90: r.p99US, P99: r.p99US, P999: r.p99US, Max: r.p99US, Count: 1, RepP99: reps},
		}
	}
	return pts
}

// Rows measured with `wcqbench -figure w1 -waiters 8,1024 -reps 3` on a
// 2-vCPU x86-64 host (Go 1.24), before the adaptive spin-then-park wait
// was removed: each wait strategy once per GOMAXPROCS setting.
var (
	adaptiveRowsP2 = []w1Row{
		{"Chan", 8, 4.324, 4.352, nil}, {"Chan", 1024, 3.536, 52428.8, nil},
		{"ChanSharded", 8, 4.618, 3.968, nil}, {"ChanSharded", 1024, 4.518, 44040.2, nil},
	}
	parkRowsP2 = []w1Row{
		{"Chan", 8, 7.300, 4.864, nil}, {"Chan", 1024, 3.816, 557.1, nil},
		{"ChanSharded", 8, 4.556, 4.352, nil}, {"ChanSharded", 1024, 3.424, 557.1, nil},
	}
	adaptiveRowsP1 = []w1Row{
		{"Chan", 8, 9.625, 0.864, nil}, {"Chan", 1024, 9.255, 21374.1, nil},
		{"ChanSharded", 8, 7.141, 0.672, nil}, {"ChanSharded", 1024, 6.477, 30408.7, nil},
	}
	parkRowsP1 = []w1Row{
		{"Chan", 8, 9.631, 0.672, nil}, {"Chan", 1024, 6.728, 38.9, nil},
		{"ChanSharded", 8, 7.335, 0.608, nil}, {"ChanSharded", 1024, 5.405, 43.0, nil},
	}
)

// TestSmokeWaitSeparatesMeasuredArms: the gate passes the measured
// park-on-first-miss rows and fails the adaptive spin-then-park rows,
// whose wait p99 at 1024 waiters reached tens of milliseconds.
func TestSmokeWaitSeparatesMeasuredArms(t *testing.T) {
	for name, rows := range map[string][]w1Row{"GOMAXPROCS=1": parkRowsP1, "GOMAXPROCS=2": parkRowsP2} {
		if err := smokeWait(w1Points(rows)); err != nil {
			t.Errorf("park rows, %s: gate failed: %v", name, err)
		}
	}
	for name, rows := range map[string][]w1Row{"GOMAXPROCS=1": adaptiveRowsP1, "GOMAXPROCS=2": adaptiveRowsP2} {
		err := smokeWait(w1Points(rows))
		if err == nil || !strings.Contains(err.Error(), "wait p99") {
			t.Errorf("adaptive rows, %s: gate = %v, want a wait-p99 failure", name, err)
		}
	}
}

// TestSmokeWaitOneStalledRep: one rep whose wait p99 crossed the bound
// among reps far below it passes the gate, as the parent's gate did
// not (a 22.0 ms ChanSharded p99 at 1024 waiters beside reps at
// 0.56–0.75 ms); a majority of stalled reps still fails it.
func TestSmokeWaitOneStalledRep(t *testing.T) {
	rows := append([]w1Row(nil), parkRowsP2...)
	rows[3].p99US, rows[3].repP99 = 22016.0, []float64{563.2, 22016.0, 749.6}
	if err := smokeWait(w1Points(rows)); err != nil {
		t.Fatalf("one stalled rep: gate failed: %v", err)
	}
	rows[3].repP99 = []float64{563.2, 22016.0, 21374.1}
	if err := smokeWait(w1Points(rows)); err == nil || !strings.Contains(err.Error(), "wait p99") {
		t.Fatalf("two stalled reps of three: gate = %v, want a wait-p99 failure", err)
	}
	pts := w1Points(parkRowsP2)
	pts[3].Latency.RepP99 = nil
	if err := smokeWait(pts); err == nil || !strings.Contains(err.Error(), "per-rep") {
		t.Fatalf("no per-rep p99s: gate = %v, want an error", err)
	}
}

// TestSmokeWaitThroughputCliff: a throughput collapse at the highest
// waiter count fails the gate even with healthy tails, and a run that
// swept one waiter count or lacks a gated queue is an error, not a pass.
func TestSmokeWaitThroughputCliff(t *testing.T) {
	rows := append([]w1Row(nil), parkRowsP1...)
	rows[3].mops = 1.54 // ChanSharded at 1024: a 4.8x collapse
	if err := smokeWait(w1Points(rows)); err == nil || !strings.Contains(err.Error(), "ChanSharded") {
		t.Fatalf("collapse rows: gate = %v, want a ChanSharded throughput failure", err)
	}
	if err := smokeWait(w1Points(parkRowsP1[:1])); err == nil {
		t.Fatal("one waiter count passed the gate")
	}
	if err := smokeWait(w1Points(parkRowsP1[:2])); err == nil {
		t.Fatal("a run without ChanSharded passed the gate")
	}
}

// TestWakeupLatencyUsesFigureLineup: -queues narrows the wakeup report
// to the figure's own line-up, as it narrows Run, so a nonblocking
// queue named on the command line never reaches the blocking probe.
func TestWakeupLatencyUsesFigureLineup(t *testing.T) {
	f, err := harness.FigureByID("b1")
	if err != nil {
		t.Fatal(err)
	}
	out := wakeupLatency(f, harness.RunOpts{Queues: []string{"wCQ", "Chan"}}, &clihelper.Flags{Capacity: 256})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "Chan ") || strings.Contains(lines[1], "n/a") {
		t.Fatalf("wakeup report, want a header and one measured Chan line:\n%s", out)
	}
}

// TestWriteJSONValidates: a malformed point is refused before the file
// is written; a well-formed file is written and reads back valid.
func TestWriteJSONValidates(t *testing.T) {
	dir := t.TempDir()
	bad := benchfmt.New(100, 1)
	bad.Points = []benchfmt.Point{{Figure: "11b", Queue: "wCQ", Threads: 0}}
	path := filepath.Join(dir, "bad.json")
	if err := writeJSON(path, bad); err == nil || !strings.Contains(err.Error(), "thread count") {
		t.Fatalf("writeJSON(invalid) = %v, want a thread-count validation error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("invalid results reached disk (stat: %v)", err)
	}

	good := benchfmt.New(100, 1)
	good.Points = []benchfmt.Point{{Figure: "11b", Queue: "wCQ", Threads: 1, MopsMin: 1, MopsMean: 2, MopsMax: 3}}
	path = filepath.Join(dir, "good.json")
	if err := writeJSON(path, good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchfmt.File
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil || len(back.Points) != 1 {
		t.Fatalf("written file: %d points, validate %v", len(back.Points), err)
	}
}
