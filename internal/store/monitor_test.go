package store

import (
	"strings"
	"testing"

	"github.com/repro/scrutinizer/internal/obs"
)

func TestMonitoredCounts(t *testing.T) {
	reg := obs.NewRegistry()
	st := Monitor(NewMemoryStore(), reg)

	for i := 0; i < 3; i++ {
		if err := st.Append(&Record{Op: OpRelationPut, Corpus: "c"}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := st.Replay(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"scrutinizer_store_appends_total 3",
		"scrutinizer_store_append_errors_total 0",
		"scrutinizer_store_append_seconds_count 3",
		"scrutinizer_store_journal_records 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Replay must have recorded a recovery duration (>= 0 is all we can
	// assert; presence of the series is the contract).
	if !strings.Contains(out, "scrutinizer_store_recovery_seconds") {
		t.Errorf("missing recovery gauge in:\n%s", out)
	}
}

func TestMonitoredAppendErrors(t *testing.T) {
	reg := obs.NewRegistry()
	inner := NewMemoryStore()
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
	st := Monitor(inner, reg)
	if err := st.Append(&Record{Op: OpRelationPut}); err == nil {
		t.Fatal("append on closed store should fail")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "scrutinizer_store_append_errors_total 1") {
		t.Errorf("error not counted:\n%s", out)
	}
	if !strings.Contains(out, "scrutinizer_store_appends_total 0") {
		t.Errorf("failed append counted as success:\n%s", out)
	}
}

func TestMonitoredPassthrough(t *testing.T) {
	reg := obs.NewRegistry()
	st := Monitor(NewMemoryStore(), reg)
	if st.Inner() == nil {
		t.Fatal("Inner() lost the wrapped store")
	}
	appendAll(t, st, testRecord(OpCorpusCreate, "c1", ""))
	if got := replayAll(t, st); len(got) != 1 || got[0].Corpus != "c1" {
		t.Fatalf("Replay passthrough = %+v, want the one appended record", got)
	}
	if st.Stats().Backend != "memory" {
		t.Fatalf("Stats passthrough broken: %+v", st.Stats())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
