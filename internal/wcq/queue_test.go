package wcq

import "testing"

func TestDataQueueSequential(t *testing.T) {
	q, err := NewQueue[string](4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
	for _, s := range []string{"a", "b", "c", "d"} {
		if !h.Enqueue(s) {
			t.Fatalf("enqueue %q failed", s)
		}
	}
	if h.Enqueue("x") {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		v, ok := h.Dequeue()
		if !ok || v != want {
			t.Fatalf("got (%q,%v), want %q", v, ok, want)
		}
	}
}

func TestDataQueueReleasesReferences(t *testing.T) {
	q, _ := NewQueue[*int](4, 1, nil)
	h, _ := q.Register()
	x := new(int)
	h.Enqueue(x)
	h.Dequeue()
	// The payload slot must be zeroed after dequeue (GC hygiene).
	for i := range q.data {
		if q.data[i] != nil {
			t.Fatal("payload slot retains a pointer after dequeue")
		}
	}
}

func TestRingDrained(t *testing.T) {
	q, hs := newTestRing(t, 8, 1, nil)
	h := hs[0]
	if !q.Drained() {
		t.Fatal("fresh ring (head==tail) should report drained")
	}
	h.Enqueue(1)
	if q.Drained() {
		t.Fatal("ring with pending ticket reported drained")
	}
	h.Dequeue()
	if !q.Drained() {
		t.Fatal("consumed ring not drained")
	}
}
