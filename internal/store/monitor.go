package store

import (
	"time"

	"github.com/repro/scrutinizer/internal/obs"
)

// Monitored wraps a Store with metrics: append counts, errors and fsync
// latency are timed at the call boundary, the Replay that opens a
// recovery is timed, and the inner store's own Stats() snapshot, its
// compaction figures included, is mirrored into gauges and counters at
// scrape time. The wrapper adds one time.Now pair per append —
// noise next to the fsync it measures — and changes no behavior, so the
// daemon can keep a handle to the inner store for Close.
type Monitored struct {
	inner Store

	appends   *obs.Counter
	appendErr *obs.Counter
	appendSec *obs.Histogram
	recovery  *obs.Gauge
}

// Monitor wraps st and registers its metrics on reg. The scrape hook added
// here reads st.Stats() (cheap: in-memory counters guarded by the store's
// own lock) so journal size and record count are current
// on every scrape without polling.
func Monitor(st Store, reg *obs.Registry) *Monitored {
	m := &Monitored{
		inner:     st,
		appends:   reg.NewCounter("scrutinizer_store_appends_total", "Journal records appended (successfully) since process start."),
		appendErr: reg.NewCounter("scrutinizer_store_append_errors_total", "Journal appends that returned an error."),
		appendSec: reg.NewHistogram("scrutinizer_store_append_seconds", "Journal append latency including fsync.", obs.ExpBuckets(0.0001, 4, 10)),
		recovery:  reg.NewGauge("scrutinizer_store_recovery_seconds", "Wall-clock duration of the last journal replay: decoding the records and folding them into the surviving set, not rebuilding corpora or retraining verifiers."),
	}
	records := reg.NewGauge("scrutinizer_store_journal_records", "Intact journal records in the store.")
	journalBytes := reg.NewGauge("scrutinizer_store_journal_bytes", "Journal size in bytes; compaction shrinks it.")
	liveBytes := reg.NewGauge("scrutinizer_store_journal_live_bytes", "Journal bytes the last compaction kept plus the live part of what was appended since; the journal size before any compaction.")
	appended := reg.NewCounter("scrutinizer_store_appended_bytes_total", "Journal bytes appended since process start.")
	compactions := reg.NewCounter("scrutinizer_store_compactions_total", "Compactions that replaced the journal with its live records.")
	compactErr := reg.NewCounter("scrutinizer_store_compaction_errors_total", "Compactions that failed and left the journal as it was.")
	compactSec := reg.NewGauge("scrutinizer_store_compaction_seconds", "Wall-clock duration of the last compaction.")
	stall := reg.NewGauge("scrutinizer_store_compaction_stall_max_seconds", "Longest time a compaction held journal appends back.")
	tornTail := reg.NewGauge("scrutinizer_store_torn_tail_recovered", "1 when opening the journal truncated a torn tail, else 0.")
	reg.OnScrape(func() {
		st := m.inner.Stats()
		records.Set(float64(st.Records))
		journalBytes.Set(float64(st.JournalBytes))
		liveBytes.Set(float64(st.LiveBytes))
		appended.Set(float64(st.AppendedBytes))
		compactions.Set(float64(st.Compactions))
		compactErr.Set(float64(st.CompactionErrors))
		compactSec.Set(st.CompactionS)
		stall.Set(st.CompactionStallMaxS)
		if st.TornTailRecovered {
			tornTail.Set(1)
		} else {
			tornTail.Set(0)
		}
	})
	return m
}

// Inner returns the wrapped store.
func (m *Monitored) Inner() Store { return m.inner }

// Append implements Store.
func (m *Monitored) Append(rec *Record) error {
	start := time.Now()
	err := m.inner.Append(rec)
	m.appendSec.Observe(time.Since(start).Seconds())
	if err != nil {
		m.appendErr.Inc()
		return err
	}
	m.appends.Inc()
	return nil
}

// Replay implements Store, recording the replay's wall-clock duration as
// the recovery-time metric.
func (m *Monitored) Replay(fn func(*Record) error) error {
	start := time.Now()
	err := m.inner.Replay(fn)
	m.recovery.Set(time.Since(start).Seconds())
	return err
}

// Stats implements Store.
func (m *Monitored) Stats() Stats { return m.inner.Stats() }

// Close implements Store.
func (m *Monitored) Close() error { return m.inner.Close() }
