package main

import (
	"testing"
	"time"
)

func TestClassifyAnswer(t *testing.T) {
	for _, tc := range []struct {
		answeredFinal, nextIsFinal, batchesMoved bool
		want                                     answerKind
	}{
		{false, false, false, answerScreen},
		{false, true, false, answerQuerygen},
		{true, false, false, answerFinal},
		// Closing a batch outranks the step: the barrier ran inside it.
		{true, false, true, answerBarrier},
		{false, false, true, answerBarrier},
	} {
		if got := classifyAnswer(tc.answeredFinal, tc.nextIsFinal, tc.batchesMoved); got != tc.want {
			t.Errorf("classifyAnswer(%v, %v, %v) = %s, want %s", tc.answeredFinal, tc.nextIsFinal, tc.batchesMoved, got, tc.want)
		}
	}
}

func TestBarrierAnswer(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	type iv struct{ a, b int }
	for _, tc := range []struct {
		name   string
		finals []iv
		hook   int
		want   int
	}{
		{"one answer spans the hook", []iv{{0, 2}, {3, 50}, {4, 5}}, 30, 1},
		// A worker descheduled right after its own answer can still span
		// the hook; the barrier answer is the one that returns last.
		{"overlapping late return", []iv{{0, 35}, {3, 50}}, 30, 1},
		{"hook outside every answer", []iv{{0, 2}, {3, 5}}, 30, -1},
		{"no final answers", nil, 30, -1},
		{"hook at the boundary", []iv{{0, 30}}, 30, 0},
	} {
		got := barrierAnswer(len(tc.finals), func(i int) (time.Time, time.Time) {
			return at(tc.finals[i].a), at(tc.finals[i].b)
		}, at(tc.hook))
		if got != tc.want {
			t.Errorf("%s: barrierAnswer = %d, want %d", tc.name, got, tc.want)
		}
	}
}
