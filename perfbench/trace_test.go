package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestUnionWithin(t *testing.T) {
	ivs := []interval{{ms(1), ms(3)}, {ms(2), ms(5)}, {ms(8), ms(12)}, {ms(20), ms(30)}}
	// [1,5) and [8,10) after clipping to [0,10): overlaps count once, the
	// part past the window and the interval outside it not at all.
	if got := unionWithin(ivs, 0, ms(10)); got != ms(6) {
		t.Errorf("union = %v, want 6ms", got)
	}
	if got := unionWithin(nil, 0, ms(10)); got != 0 {
		t.Errorf("empty union = %v", got)
	}
	nested := []interval{{ms(0), ms(10)}, {ms(2), ms(3)}, {ms(4), ms(6)}}
	if got := unionWithin(nested, 0, ms(10)); got != ms(10) {
		t.Errorf("nested union = %v, want 10ms", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: ms(10)},
		// Two workers overlap in [2,5): self time counts that once.
		{ID: 2, Parent: 1, Name: "claim", Start: ms(1), End: ms(5)},
		{ID: 3, Parent: 1, Name: "claim", Start: ms(2), End: ms(8)},
		{ID: 4, Parent: 3, Name: "answer", Start: ms(3), End: ms(4)},
		{ID: 5, Parent: 4, Name: "retrain", Start: ms(3), End: ms(4)},
	}
	setSelfTimes(spans)
	want := map[int64]time.Duration{1: ms(3), 2: ms(4), 3: ms(5), 4: 0, 5: ms(1)}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %v, want %v", s.ID, s.Self, want[s.ID])
		}
	}
	if got := uncoveredShare(spans, spans[0]); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("uncovered share = %v, want 0.3", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if id := tr.add(tr.newID(), 0, "x", "", now, now); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	if spans := tr.finish(); spans != nil {
		t.Errorf("nil tracer finished with %d spans", len(spans))
	}
}

func TestTracerKeepsParentLinks(t *testing.T) {
	tr := newTracer()
	root := tr.newID()
	t0 := time.Now()
	child := tr.add(0, root, "child", "r1", t0, t0.Add(ms(2)))
	tr.add(root, 0, "root", "r1", t0, t0.Add(ms(4)))
	spans := tr.finish()
	if len(spans) != 2 || child == root {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.Name == "root" && s.Self != ms(2) {
			t.Errorf("root self = %v, want 2ms", s.Self)
		}
		if s.Name == "child" && s.Parent != root {
			t.Errorf("child parent = %d, want %d", s.Parent, root)
		}
	}
}
