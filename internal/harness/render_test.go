package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the render goldens under testdata/")

// synthPoints builds a deterministic point for every (queue, sweep
// value) of f, then leaves one cell missing (the first queue at the
// second sweep value) and marks one point errored (the last queue at
// the first sweep value).
func synthPoints(f Figure) []Point {
	xs := f.Sweep.Values
	point := func(q string, x float64) Point { return Point{Queue: q, Threads: int(x)} }
	switch f.Sweep.Axis {
	case BurstAxis:
		point = func(q string, x float64) Point { return Point{Queue: q, Threads: f.Threads, Burst: int(x)} }
	case BatchAxis:
		point = func(q string, x float64) Point { return Point{Queue: q, Threads: f.Threads, Batch: int(x)} }
	case LoadAxis:
		point = func(q string, x float64) Point { return Point{Queue: q, Threads: f.Threads, Load: x} }
	}
	var pts []Point
	for qi, q := range f.Queues {
		for xi, x := range xs {
			if qi == 0 && xi == 1 {
				continue
			}
			p := point(q, x)
			if qi == len(f.Queues)-1 && xi == 0 {
				p.Err = errFake
				pts = append(pts, p)
				continue
			}
			base := float64(qi+1) + float64(xi)/8
			p.Mops = stats.Summarize([]float64{base, base + 0.25})
			p.MemoryMB = float64(qi)/4 + float64(xi) + 0.5
			p.FootprintMB = float64(qi) + 0.125
			h := metrics.NewHistogram()
			for i := 1; i <= 100; i++ {
				h.Record(uint64(1000 * (qi + 1) * (xi + 1) * i))
			}
			p.Latency = h.Snapshot()
			pts = append(pts, p)
		}
	}
	return pts
}

// TestRenderGolden pins every figure's rendered text: a fixed
// synthetic point set per figure, rendered under default options and
// compared byte for byte with testdata/render_<id>.golden. Run
// `go test -run TestRenderGolden -update` to rewrite the files after a
// deliberate layout change.
func TestRenderGolden(t *testing.T) {
	for _, f := range Figures() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			var sb strings.Builder
			f.Render(&sb, synthPoints(f), RunOpts{})
			path := filepath.Join("testdata", "render_"+f.ID+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("figure %s rendered\n%s\nwant\n%s", f.ID, got, want)
			}
		})
	}
}
