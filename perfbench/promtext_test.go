package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP scrutinizer_http_request_seconds HTTP request latency by route class.
# TYPE scrutinizer_http_request_seconds histogram
scrutinizer_http_request_seconds_bucket{route="v1/runs",le="0.001"} 10
scrutinizer_http_request_seconds_bucket{route="v1/runs",le="+Inf"} 12
scrutinizer_http_request_seconds_sum{route="v1/runs"} 0.5
scrutinizer_http_request_seconds_count{route="v1/runs"} 12
scrutinizer_http_request_seconds_sum{route="metrics"} 0.25
scrutinizer_http_request_seconds_count{route="metrics"} 1
scrutinizer_store_appends_total 100
scrutinizer_querycache_hits_total{corpus="t0"} 5
scrutinizer_querycache_hits_total{corpus="t1"} 7
scrutinizer_build_info{version="dev \"quoted\"",go="go1.24"} 1
`

const scrapeAfter = `scrutinizer_http_request_seconds_sum{route="v1/runs"} 2.5
scrutinizer_http_request_seconds_count{route="v1/runs"} 52
scrutinizer_http_request_seconds_sum{route="metrics"} 0.5
scrutinizer_http_request_seconds_count{route="metrics"} 2
scrutinizer_store_appends_total 160
scrutinizer_querycache_hits_total{corpus="t0"} 9
scrutinizer_querycache_hits_total{corpus="t1"} 17
scrutinizer_store_journal_bytes 1.5e+06
`

func mustParse(t *testing.T, s string) promScrape {
	t.Helper()
	p, err := parseProm(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseProm(t *testing.T) {
	p := mustParse(t, scrapeBefore)
	if got := p.get("scrutinizer_http_request_seconds_bucket", "route", "v1/runs", "le", "+Inf"); got != 12 {
		t.Errorf("+Inf bucket = %v, want 12", got)
	}
	if got := p.get("scrutinizer_querycache_hits_total"); got != 12 {
		t.Errorf("hits summed over corpora = %v, want 12", got)
	}
	if got := p.get("scrutinizer_querycache_hits_total", "corpus", "t1"); got != 7 {
		t.Errorf("hits of t1 = %v, want 7", got)
	}
	if got := p.get("scrutinizer_build_info", "version", `dev "quoted"`); got != 1 {
		t.Errorf("escaped label value not matched: %v", got)
	}
	if got := p.get("scrutinizer_absent_total"); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
	if got := mustParse(t, scrapeAfter).get("scrutinizer_store_journal_bytes"); got != 1.5e6 {
		t.Errorf("exponent value = %v", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"novalue",
		`x{route="a"`,
		`x{route=a} 1`,
		`x{route="a"} notanumber`,
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestHistogramDelta(t *testing.T) {
	before, after := mustParse(t, scrapeBefore), mustParse(t, scrapeAfter)
	n, total := histDelta(before, after, "scrutinizer_http_request_seconds", "route", "v1/runs")
	if n != 40 || math.Abs(total-2) > 1e-12 {
		t.Errorf("v1/runs delta = %v obs / %v s, want 40 / 2", n, total)
	}
	n, total = histDelta(before, after, "scrutinizer_http_request_seconds")
	if n != 41 || math.Abs(total-2.25) > 1e-12 {
		t.Errorf("all-route delta = %v obs / %v s, want 41 / 2.25", n, total)
	}
	if d := delta(before, after, "scrutinizer_store_appends_total"); d != 60 {
		t.Errorf("counter delta = %v, want 60", d)
	}
	// A series that appears only after the first scrape counts from 0.
	if d := delta(before, after, "scrutinizer_store_journal_bytes"); d != 1.5e6 {
		t.Errorf("new series delta = %v, want 1.5e6", d)
	}
}
