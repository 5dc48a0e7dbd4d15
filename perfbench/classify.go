package main

import "time"

// answerKind classifies one answer by the question it answered and what
// came back: a barrier answer completed its batch (the retrain barrier
// and next batch selection ran inside it); a final answer closed a claim
// without one; a querygen answer built the claim's final screen
// (Algorithm 2); a screen answer only moved to the next screen.
type answerKind string

const (
	answerScreen   answerKind = "screen"
	answerQuerygen answerKind = "querygen"
	answerFinal    answerKind = "final"
	answerBarrier  answerKind = "barrier"
)

func classifyAnswer(answeredFinal, nextIsFinal, batchesMoved bool) answerKind {
	switch {
	case batchesMoved:
		return answerBarrier
	case answeredFinal:
		return answerFinal
	case nextIsFinal:
		return answerQuerygen
	}
	return answerScreen
}

// barrierAnswer picks, among a batch's n final-step answers, the one that
// ran the retrain barrier: AfterBatch fired at hook inside it, and it is
// the last to return, since the next batch selection runs after the hook
// inside the same call. It returns -1 when no answer spans hook.
func barrierAnswer(n int, interval func(i int) (start, end time.Time), hook time.Time) int {
	best := -1
	var bestEnd time.Time
	for i := 0; i < n; i++ {
		a0, a1 := interval(i)
		if hook.Before(a0) || hook.After(a1) {
			continue
		}
		if best < 0 || a1.After(bestEnd) {
			best, bestEnd = i, a1
		}
	}
	return best
}
