package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzSessionAnswersBody holds parseAnswers, which reads every body posted
// to /v1/runs/{id}/answers, to two properties on any input: it does not
// panic, and the answers of every body it accepts re-encode, in either
// body shape, to a body that parses to the same answers.
func FuzzSessionAnswersBody(f *testing.F) {
	for _, s := range []string{
		"", "{not json", "null", "[]", "{}", `{"answers":[]}`, `{"answers":null}`,
		`{"claim_id":3,"value":"EnerDema_Glob_CurrPoli","seconds":2.5}`,
		`{"question_id":"c1.0","claim_id":0,"value":"","seconds":0}`,
		`{"answers":[{"claim_id":1,"value":"a","seconds":1},{"question_id":"c2.1","claim_id":2,"value":"SELECT 1","seconds":1e-9}]}`,
		`{"answers":[{"claim_id":"x"}]}`, `{"claim_id":1.5}`, `{"claim_id":1,"claim_id":2}`,
		`{"Answers":[{"claim_id":1}],"claim_id":4}`, `{"answers":{},"claim_id":1}`,
		`{"claim_id":1,"value":"\ud800<\xff","seconds":-0}` + " trailing",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		answers, err := parseAnswers(data)
		if err != nil {
			if msg := err.Error(); msg != "no answers in body" && !strings.HasPrefix(msg, "malformed JSON: ") {
				t.Fatalf("unexpected error text %q", msg)
			}
			return
		}
		if len(answers) == 0 {
			t.Fatal("accepted a body without answers")
		}
		bodies := make([][]byte, 0, 2)
		env, err := json.Marshal(answersRequest{Answers: answers})
		if err != nil {
			t.Fatalf("encoding accepted answers: %v", err)
		}
		bodies = append(bodies, env)
		if len(answers) == 1 {
			single, err := json.Marshal(answers[0])
			if err != nil {
				t.Fatalf("encoding an accepted answer: %v", err)
			}
			bodies = append(bodies, single)
		}
		for _, body := range bodies {
			back, err := parseAnswers(body)
			if err != nil {
				t.Fatalf("re-parsing %s: %v", body, err)
			}
			if !reflect.DeepEqual(back, answers) {
				t.Fatalf("round trip changed the answers: %+v, then %+v from %s", answers, back, body)
			}
		}
	})
}
