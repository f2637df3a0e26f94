// Bounded-exhaustive check of the Chan's nonblocking surface against a
// sequential model: every sequence of a fixed length of TrySend,
// TrySendMany, TryRecv, TryRecvMany and at most one Close, over two
// handles, on Chans small enough that a few sends fill them. Both
// blocking loops are these steps plus parking, so the model also
// covers the decisions they take: a send after Close fails and buffers
// nothing, a full buffer takes a batch's prefix, and the close drain
// hands out every buffered value before it reports ErrClosed.

package wfqueue

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/metrics"
)

// chanModelShallow selects the -short depth; a race build sets it too
// (chan_model_race_test.go).
var chanModelShallow bool

// chanModelBatch is the length of every batch in the enumeration.
const chanModelBatch = 2

// chanModelOp is one step of a sequence: an operation on handle h, or
// the Chan's Close.
type chanModelOp struct {
	name string
	h    int
}

func (o chanModelOp) String() string {
	if o.name == "Close" {
		return o.name
	}
	return fmt.Sprintf("h%d.%s", o.h, o.name)
}

// chanModelOps lists the steps a sequence is built from.
var chanModelOps = func() []chanModelOp {
	var ops []chanModelOp
	for h := range 2 {
		for _, name := range []string{"TrySend", "TrySendMany", "TryRecv", "TryRecvMany"} {
			ops = append(ops, chanModelOp{name, h})
		}
	}
	return append(ops, chanModelOp{name: "Close"})
}()

// chanModel is the sequential specification of a Chan of capacity
// limit (0: unbounded, as Chan.Cap reports it): a FIFO of the buffered values, the closed flag,
// and how many receives have reported the closed-and-drained state.
type chanModel struct {
	fifo   []int
	limit  int
	closed bool
	drains uint64
}

// room is how many of want values a send may buffer.
func (m *chanModel) room(want int) int {
	if m.limit == 0 {
		return want
	}
	return min(want, m.limit-len(m.fifo))
}

// chanModelRun replays sequences on fresh Chans of one configuration,
// sharing a metrics sink whose CloseDrain count it reads as a delta.
type chanModelRun struct {
	b    Backend
	cap  uint64
	sink *MetricsSink
}

func (r *chanModelRun) drains() uint64 { return r.sink.Count(metrics.CloseDrain) }

// replay runs seq on a fresh Chan, checking every result against the
// model, then closes the Chan and drains it through handle 0.
func (r *chanModelRun) replay(seq []chanModelOp) error {
	c, err := NewChan[int](r.cap, 2, WithBackend(r.b), WithMetrics(r.sink))
	if err != nil {
		return err
	}
	var hs [2]*ChanHandle[int]
	for i := range hs {
		if hs[i], err = c.Handle(); err != nil {
			return err
		}
	}
	base := r.drains()
	m := chanModel{limit: int(c.Cap())}
	next := 1
	for i, op := range seq {
		if err := r.step(c, hs[op.h], &m, op, &next); err != nil {
			return fmt.Errorf("%v, step %d: %w", seq, i, err)
		}
		if got := r.drains() - base; got != m.drains {
			return fmt.Errorf("%v, step %d: CloseDrain = %d, model %d", seq, i, got, m.drains)
		}
		if c.core.Empty() && len(m.fifo) != 0 {
			return fmt.Errorf("%v, step %d: Empty() with %d values buffered", seq, i, len(m.fifo))
		}
	}
	if !m.closed {
		if err := r.step(c, hs[0], &m, chanModelOp{name: "Close"}, &next); err != nil {
			return fmt.Errorf("%v, closing: %w", seq, err)
		}
	}
	drain := chanModelOp{name: "TryRecvMany"}
	for {
		before := m.drains
		if err := r.step(c, hs[0], &m, drain, &next); err != nil {
			return fmt.Errorf("%v, draining: %w", seq, err)
		}
		if m.drains != before {
			break
		}
	}
	if got := r.drains() - base; got != m.drains {
		return fmt.Errorf("%v, drained: CloseDrain = %d, model %d", seq, got, m.drains)
	}
	return nil
}

// step runs op on h and checks its results against m, which it
// advances. Sent values are next, next+1, ....
func (r *chanModelRun) step(c *Chan[int], h *ChanHandle[int], m *chanModel, op chanModelOp, next *int) error {
	// wantRecv is the model's receive of up to want values: the values,
	// and the error the Chan must report with them.
	wantRecv := func(want int) ([]int, error) {
		if n := min(want, len(m.fifo)); n > 0 {
			vs := slices.Clone(m.fifo[:n])
			m.fifo = m.fifo[n:]
			return vs, nil
		}
		if m.closed {
			m.drains++
			return nil, ErrClosed
		}
		return nil, nil
	}
	// wantSend is the model's send of vs: the prefix it buffers, and
	// the error the Chan must report.
	wantSend := func(vs []int) ([]int, error) {
		if m.closed {
			return nil, ErrClosed
		}
		n := m.room(len(vs))
		m.fifo = append(m.fifo, vs[:n]...)
		return vs[:n], nil
	}
	// check compares the values an operation moved, and its error.
	check := func(got []int, gotErr error, want []int, wantErr error) error {
		if !slices.Equal(got, want) || !errors.Is(gotErr, wantErr) {
			return fmt.Errorf("%v = %v, %v; model %v, %v", op, got, gotErr, want, wantErr)
		}
		return nil
	}
	switch op.name {
	case "TrySend":
		v := *next
		*next++
		ok, err := h.TrySend(v)
		var got []int
		if ok {
			got = []int{v}
		}
		want, wantErr := wantSend([]int{v})
		return check(got, err, want, wantErr)
	case "TrySendMany":
		vs := []int{*next, *next + 1}
		*next += chanModelBatch
		n, err := h.TrySendMany(vs)
		want, wantErr := wantSend(vs)
		return check(vs[:n], err, want, wantErr)
	case "TryRecv":
		v, ok, err := h.TryRecv()
		var got []int
		if ok {
			got = []int{v}
		} else if v != 0 {
			return fmt.Errorf("%v missed but returned %d", op, v)
		}
		want, wantErr := wantRecv(1)
		return check(got, err, want, wantErr)
	case "TryRecvMany":
		out := make([]int, chanModelBatch)
		n, err := h.TryRecvMany(out)
		want, wantErr := wantRecv(chanModelBatch)
		return check(out[:n], err, want, wantErr)
	case "Close":
		err := c.Close()
		var wantErr error
		if m.closed {
			wantErr = ErrClosed
		}
		m.closed = true
		return check(nil, err, nil, wantErr)
	}
	return fmt.Errorf("unknown op %v", op)
}

// chanModelEnumerate calls f on every sequence of depth operations from
// chanModelOps with at most one Close, and returns how many it ran.
func chanModelEnumerate(depth int, f func([]chanModelOp) error) (int, error) {
	seq := make([]chanModelOp, 0, depth)
	count := 0
	var rec func(closed bool) error
	rec = func(closed bool) error {
		if len(seq) == depth {
			count++
			return f(seq)
		}
		for _, op := range chanModelOps {
			isClose := op.name == "Close"
			if isClose && closed {
				continue
			}
			seq = append(seq, op)
			err := rec(closed || isClose)
			seq = seq[:len(seq)-1]
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(false)
	return count, err
}

// TestChanModelNonblocking runs every sequence of 5 operations (3 under
// -short and in race builds) on BackendWCQ and BackendSCQ at capacity 2
// and 4 and on BackendUnbounded with 2-slot rings. Each sequence ends
// with a Close, if it had none, and a drain through TryRecvMany, so
// every value sent must come back, in order, before the one ErrClosed.
func TestChanModelNonblocking(t *testing.T) {
	depth := 5
	if testing.Short() || chanModelShallow {
		depth = 3
	}
	for _, r := range []chanModelRun{
		{b: BackendWCQ, cap: 2},
		{b: BackendWCQ, cap: 4},
		{b: BackendSCQ, cap: 2},
		{b: BackendSCQ, cap: 4},
		{b: BackendUnbounded, cap: 2},
	} {
		t.Run(fmt.Sprintf("%v/cap=%d", r.b, r.cap), func(t *testing.T) {
			t.Parallel()
			r.sink = NewMetricsSink()
			n, err := chanModelEnumerate(depth, r.replay)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d sequences of %d operations", n, depth)
		})
	}
}
