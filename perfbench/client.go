package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// apiClient is a /v1 client of one daemon. Every request counts as one
// attempted operation; transport errors and non-2xx answers (refusals
// included) count as failed.
type apiClient struct {
	base      string
	hc        *http.Client
	attempted atomic.Int64
	failed    atomic.Int64
}

func newAPIClient(base string) *apiClient {
	return &apiClient{
		base: base,
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
		},
	}
}

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). It returns the call's wall time as the client saw it.
func (c *apiClient) do(method, path string, body []byte, out any) (time.Duration, error) {
	c.attempted.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.failed.Add(1)
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed.Add(1)
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		c.failed.Add(1)
		return elapsed, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.failed.Add(1)
		msg := strings.TrimSpace(string(raw))
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		return elapsed, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, msg)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.failed.Add(1)
			return elapsed, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return elapsed, nil
}

func (c *apiClient) metrics() (promScrape, error) {
	c.attempted.Add(1)
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		c.failed.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.failed.Add(1)
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// tenant is one generated world registered with a daemon: its corpus as
// CSV relations, the previously checked half that trains the verifier and
// the held-out half that is verified.
type tenant struct {
	// seed generated the world and also seeds the tenant's verifier and
	// crowd, so tenants of one run are independent samples.
	seed       int64
	corpusID   string
	verifierID string
	world      *worldgen.World
	relations  [][2]string // name, CSV
	training   json.RawMessage
	heldOut    *scrutinizer.Document
	heldOutRaw json.RawMessage
}

func newTenant(corpusID string, w *worldgen.World) (*tenant, error) {
	t := &tenant{seed: w.Config.Seed, corpusID: corpusID, world: w}
	for _, name := range w.Corpus.Names() {
		rel, err := w.Corpus.Relation(name)
		if err != nil {
			return nil, err
		}
		var csv bytes.Buffer
		if err := rel.WriteCSV(&csv); err != nil {
			return nil, err
		}
		t.relations = append(t.relations, [2]string{name, csv.String()})
	}
	train, held := splitDocument(w.Document)
	var err error
	if t.training, err = docJSON(train); err != nil {
		return nil, err
	}
	if t.heldOutRaw, err = docJSON(held); err != nil {
		return nil, err
	}
	t.heldOut = held
	return t, nil
}

// splitDocument cuts a document in document order: the first half plays
// the archive of previously checked claims, the second the new draft.
func splitDocument(d *scrutinizer.Document) (train, held *scrutinizer.Document) {
	n := len(d.Claims) / 2
	train = &scrutinizer.Document{Title: d.Title + " (checked)", Claims: d.Claims[:n], Sections: d.Sections}
	held = &scrutinizer.Document{Title: d.Title + " (draft)", Claims: d.Claims[n:], Sections: d.Sections}
	return train, held
}

func docJSON(d *scrutinizer.Document) (json.RawMessage, error) {
	var b bytes.Buffer
	if err := d.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// register creates the tenant's corpus, uploads every relation as CSV and
// trains its verifier. The spans' durations feed the per-route figures.
func (t *tenant) register(c *apiClient, tr *tracer, parent int64) error {
	ts := time.Now()
	body, _ := json.Marshal(map[string]string{"id": t.corpusID})
	if _, err := c.do(http.MethodPost, "/v1/corpora", body, nil); err != nil {
		return err
	}
	tr.add(0, parent, "http.corpus_create", t.corpusID, ts, time.Now())
	for _, rel := range t.relations {
		ts = time.Now()
		if _, err := c.do(http.MethodPut, "/v1/corpora/"+t.corpusID+"/relations/"+rel[0], []byte(rel[1]), nil); err != nil {
			return err
		}
		tr.add(0, parent, "http.relation_put", t.corpusID, ts, time.Now())
	}
	body, err := json.Marshal(map[string]any{"training": t.training, "seed": t.seed})
	if err != nil {
		return err
	}
	var vr struct {
		ID string `json:"id"`
	}
	ts = time.Now()
	if _, err := c.do(http.MethodPost, "/v1/corpora/"+t.corpusID+"/verifiers", body, &vr); err != nil {
		return err
	}
	tr.add(0, parent, "http.verifier_create", t.corpusID, ts, time.Now())
	t.verifierID = vr.ID
	return nil
}

// crowdSource holds what a tenant's simulated crowd answers from: truth
// labels and truth SQL resolved by an engine over the tenant's corpus,
// and the team whose per-claim views give the answers.
type crowdSource struct {
	engine *core.Engine
	team   *scrutinizer.Team
	byID   map[int]*scrutinizer.Claim
}

// localCrowd answers session screens exactly as the in-process simulated
// crowd does: one crowd view per claim, whose random stream depends only
// on the claim. A localCrowd serves one session from one goroutine.
type localCrowd struct {
	engine  *core.Engine
	team    *scrutinizer.Team
	byID    map[int]*scrutinizer.Claim
	oracles map[int]core.Oracle
}

func newCrowdSource(t *tenant) (*crowdSource, error) {
	// Truth labels and truth SQL do not depend on the trained model, so a
	// verifier fitted on a few claims does (one claim is too little text
	// for the embeddings).
	train := &scrutinizer.Document{Claims: t.world.Document.Claims[:10], Sections: t.world.Document.Sections}
	v, err := scrutinizer.NewVerifier(t.world.Corpus, train, scrutinizer.Options{Seed: t.seed})
	if err != nil {
		return nil, err
	}
	team, err := newCrowdTeam()
	if err != nil {
		return nil, err
	}
	// The run is never verified: its engine only resolves truth labels
	// and truth SQL for the oracles.
	run, err := v.StartRun(bgCtx, t.heldOut)
	if err != nil {
		return nil, err
	}
	cs := &crowdSource{engine: run.Engine(), team: team, byID: map[int]*scrutinizer.Claim{}}
	for _, c := range t.world.Document.Claims {
		cs.byID[c.ID] = c
	}
	return cs, nil
}

// crowd returns a fresh per-session crowd, so every session of a tenant
// hears the same answers.
func (cs *crowdSource) crowd() *localCrowd {
	return &localCrowd{engine: cs.engine, team: cs.team, byID: cs.byID, oracles: map[int]core.Oracle{}}
}

func (lc *localCrowd) answer(q scrutinizer.SessionQuestion) (scrutinizer.SessionAnswer, error) {
	claim := lc.byID[q.ClaimID]
	if claim == nil {
		return scrutinizer.SessionAnswer{}, fmt.Errorf("question for unknown claim %d", q.ClaimID)
	}
	oracle := lc.oracles[q.ClaimID]
	if oracle == nil {
		var err error
		if oracle, err = lc.engine.NewTeamOracle(lc.team.ForClaim(q.ClaimID)); err != nil {
			return scrutinizer.SessionAnswer{}, err
		}
		lc.oracles[q.ClaimID] = oracle
	}
	var value string
	var secs float64
	if q.Screen == "final" {
		value, secs = oracle.AnswerFinal(claim, q.Candidates)
	} else {
		kind, ok := screenKinds[q.Screen]
		if !ok {
			return scrutinizer.SessionAnswer{}, fmt.Errorf("unknown screen %q", q.Screen)
		}
		opts := make([]planner.Option, len(q.Options))
		for i, o := range q.Options {
			opts[i] = planner.Option{Value: o.Value, Prob: o.Prob}
		}
		value, secs = oracle.AnswerProperty(claim, kind, opts)
	}
	return scrutinizer.SessionAnswer{QuestionID: q.ID, ClaimID: q.ClaimID, Value: value, Seconds: secs}, nil
}

var screenKinds = map[string]core.PropertyKind{
	"relation":  core.PropRelation,
	"key":       core.PropKey,
	"attribute": core.PropAttr,
	"formula":   core.PropFormula,
}

// smallTenants generates n distinct small worlds from seed.
func smallTenants(prefix string, seed int64, n int) ([]*tenant, error) {
	ts := make([]*tenant, n)
	for i := range ts {
		cfg := worldgen.SmallScale()
		cfg.Seed = seed*1000 + int64(i)
		w, err := worldgen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating world %d: %w", i, err)
		}
		if ts[i], err = newTenant(fmt.Sprintf("%s%d", prefix, i), w); err != nil {
			return nil, err
		}
	}
	return ts, nil
}
