package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"time"

	"github.com/repro/scrutinizer"
)

// batchSize is the retraining batch of the daemon's runs: small, so a
// short session already reaches the retrain barrier.
const batchSize = 10

type timedAnswer struct {
	kind answerKind
	ms   float64
}

// pumped is an interactive run left open by pumpSession.
type pumped struct {
	id      string
	answers []timedAnswer
}

type runHandle struct {
	ID        string                        `json:"id"`
	Questions []scrutinizer.SessionQuestion `json:"questions"`
	Progress  scrutinizer.SessionProgress   `json:"progress"`
}

// pumpSession creates a mode=session run on t's verifier over its
// held-out document and answers the questions one per request, as a fact
// checker would, until stop(answers, batches) holds or the run is done.
// The run stays open; the caller deletes it.
func pumpSession(c *apiClient, tr *tracer, parent int64, t *tenant, lc *localCrowd, stop func(answers, batches int) bool) (*pumped, error) {
	body, err := json.Marshal(map[string]any{
		"document":    t.heldOutRaw,
		"mode":        "session",
		"batch":       batchSize,
		"parallelism": clients,
	})
	if err != nil {
		return nil, err
	}
	var h runHandle
	t0 := time.Now()
	if _, err := c.do(http.MethodPost, "/v1/verifiers/"+t.verifierID+"/runs", body, &h); err != nil {
		return nil, err
	}
	tr.add(0, parent, "session.create", h.ID, t0, time.Now())
	res := &pumped{id: h.ID}
	queue := h.Questions
	batches := h.Progress.Batches
	for done := h.Progress.Done; !done && !stop(len(res.answers), batches); {
		if len(queue) == 0 {
			// Questions of the next batch appear only after the barrier.
			var qs struct {
				Questions []scrutinizer.SessionQuestion `json:"questions"`
				Done      bool                          `json:"done"`
			}
			t0 := time.Now()
			if _, err := c.do(http.MethodGet, "/v1/runs/"+h.ID+"/questions", nil, &qs); err != nil {
				return nil, err
			}
			tr.add(0, parent, "http.questions", h.ID, t0, time.Now())
			if done = qs.Done; done {
				break
			}
			if len(qs.Questions) == 0 {
				return nil, fmt.Errorf("session %s is neither done nor asking anything", h.ID)
			}
			queue = qs.Questions
		}
		q := queue[0]
		queue = queue[1:]
		ans, err := lc.answer(q)
		if err != nil {
			return nil, err
		}
		ab, err := json.Marshal(ans)
		if err != nil {
			return nil, err
		}
		var ar struct {
			Questions []scrutinizer.SessionQuestion `json:"questions"`
			Progress  scrutinizer.SessionProgress   `json:"progress"`
		}
		a0 := time.Now()
		elapsed, err := c.do(http.MethodPost, "/v1/runs/"+h.ID+"/answers", ab, &ar)
		if err != nil {
			return nil, err
		}
		nextFinal := false
		for _, nq := range ar.Questions {
			nextFinal = nextFinal || (nq.ClaimID == q.ClaimID && nq.Screen == "final")
		}
		kind := classifyAnswer(q.Screen == "final", nextFinal, ar.Progress.Batches != batches)
		tr.add(0, parent, "http.answer."+string(kind), h.ID, a0, a0.Add(elapsed))
		res.answers = append(res.answers, timedAnswer{kind, float64(elapsed) / float64(time.Millisecond)})
		batches = ar.Progress.Batches
		done = ar.Progress.Done
		queue = append(queue, ar.Questions...)
	}
	return res, nil
}

// pendingQuestions reads an open run's pending questions.
func pendingQuestions(c *apiClient, id string) ([]scrutinizer.SessionQuestion, error) {
	var qs struct {
		Questions []scrutinizer.SessionQuestion `json:"questions"`
	}
	_, err := c.do(http.MethodGet, "/v1/runs/"+id+"/questions", nil, &qs)
	return qs.Questions, err
}

// checkRestart checks what a restarted daemon serves against what the
// crashed one acknowledged: the surviving tenant's corpus and verifier
// are listed, no deleted corpus is back, and the open session asks the
// same pending questions as before the kill.
func checkRestart(rep *report, c *apiClient, alive *tenant, openID string, pending []scrutinizer.SessionQuestion) {
	var corpora struct {
		Corpora []struct {
			ID string `json:"id"`
		} `json:"corpora"`
	}
	var verifiers struct {
		Verifiers []struct {
			ID string `json:"id"`
		} `json:"verifiers"`
	}
	if _, err := c.do(http.MethodGet, "/v1/corpora", nil, &corpora); err != nil {
		rep.check("restart.listed", false, "%v", err)
		return
	}
	if _, err := c.do(http.MethodGet, "/v1/verifiers", nil, &verifiers); err != nil {
		rep.check("restart.listed", false, "%v", err)
		return
	}
	var corpusIDs, verifierIDs []string
	for _, x := range corpora.Corpora {
		if x.ID != "default" { // the daemon's own startup corpus
			corpusIDs = append(corpusIDs, x.ID)
		}
	}
	for _, x := range verifiers.Verifiers {
		verifierIDs = append(verifierIDs, x.ID)
	}
	sort.Strings(corpusIDs)
	rep.check("restart.listed", reflect.DeepEqual(corpusIDs, []string{alive.corpusID}) && reflect.DeepEqual(verifierIDs, []string{alive.verifierID}),
		"want corpus %s and verifier %s only, got corpora %v and verifiers %v", alive.corpusID, alive.verifierID, corpusIDs, verifierIDs)
	got, err := pendingQuestions(c, openID)
	if err != nil {
		rep.check("restart.open_session", false, "%v", err)
		return
	}
	rep.check("restart.open_session", len(pending) > 0 && reflect.DeepEqual(got, pending),
		"%d pending questions before the kill, %d after", len(pending), len(got))
}
