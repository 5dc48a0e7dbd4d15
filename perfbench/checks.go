package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
)

// verdict is the part of a claim's outcome the digest covers: the verdict,
// the crowd time it cost, the accepted query and its value.
type verdict struct {
	claimID int
	verdict string
	seconds float64
	sql     string
	value   float64
}

func coreVerdicts(outs []*core.Outcome) []verdict {
	vs := make([]verdict, len(outs))
	for i, o := range outs {
		vs[i] = verdict{claimID: o.ClaimID, verdict: o.Verdict.String(), seconds: o.Seconds, value: o.Value}
		if o.Query != nil {
			vs[i].sql = o.Query.SQL()
		}
	}
	return vs
}

// digest hashes verdicts in claim order, so runs that verify claims in a
// different interleaving still agree.
func digest(vs []verdict) string {
	vs = append([]verdict(nil), vs...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].claimID < vs[j].claimID })
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%d|%s|%x|%s|%x\n", v.claimID, v.verdict, math.Float64bits(v.seconds), v.sql, math.Float64bits(v.value))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// combine folds an ordered list of digests into one.
func combine(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func outcomeDigest(outs []*core.Outcome) string { return digest(coreVerdicts(outs)) }

// checkOutcomes fails the run unless every claim of doc got exactly one
// outcome.
func checkOutcomes(rep *report, label string, doc *scrutinizer.Document, outs []*core.Outcome) {
	ids := make([]int, len(outs))
	for i, o := range outs {
		ids[i] = o.ClaimID
	}
	checkClaimIDs(rep, label, doc, ids)
}

func checkClaimIDs(rep *report, label string, doc *scrutinizer.Document, ids []int) {
	want := make(map[int]bool, len(doc.Claims))
	for _, c := range doc.Claims {
		want[c.ID] = true
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if !want[id] || seen[id] {
			rep.check("outcomes."+label, false, "unexpected or repeated outcome for claim %d", id)
			return
		}
		seen[id] = true
	}
	if len(seen) != len(want) {
		rep.check("outcomes."+label, false, "%d of %d claims have an outcome", len(seen), len(want))
		return
	}
	rep.passed("outcomes")
}

// digests collects the verdict digest of every run of one invocation.
type digests struct {
	labels []string
	values []string
}

func (d *digests) add(label, value string) {
	d.labels = append(d.labels, label)
	d.values = append(d.values, value)
}

// check fails the run unless every recorded digest is the same.
func (d *digests) check(rep *report, name string) {
	for i, v := range d.values {
		if v != d.values[0] {
			rep.check(name, false, "%s digest %s differs from %s digest %s", d.labels[i], v, d.labels[0], d.values[0])
			return
		}
	}
	rep.check(name, len(d.values) > 0, "%d runs, digest %s", len(d.values), d.first())
}

func (d *digests) first() string {
	if len(d.values) == 0 {
		return ""
	}
	return d.values[0]
}

// persist compares the digest with the one an earlier invocation of the
// same build, workload and seed recorded (traced against untraced runs,
// for instance), or records it when it is the first. Builds are told
// apart by hashing the binaries, so a change to the code starts afresh.
func (d *digests) persist(rep *report, o options, name string) {
	build, err := buildID(o)
	if err != nil {
		rep.check(name, false, "identifying the build: %v", err)
		return
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("digest-%s-%d-%s.txt", o.workload, o.seed, build))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		rep.check(name, strings.TrimSpace(string(prev)) == d.first(), "digest %s, earlier invocation %s", d.first(), strings.TrimSpace(string(prev)))
	case errors.Is(err, fs.ErrNotExist):
		if err := os.WriteFile(path, []byte(d.first()+"\n"), 0o644); err != nil {
			rep.check(name, false, "recording digest: %v", err)
			return
		}
		rep.check(name, true, "digest %s recorded for later invocations", d.first())
	default:
		rep.check(name, false, "reading %s: %v", path, err)
	}
}

// buildID hashes the benchmark binary and, when one is used, the daemon
// binary.
func buildID(o options) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{self, o.daemon} {
		if p == "" {
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}
