//go:build race

package query

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of its items on purpose, so pooled paths allocate.
const raceEnabled = true
