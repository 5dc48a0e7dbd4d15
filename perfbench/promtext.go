package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSeries is one sample line of the Prometheus text exposition format.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is one parsed /metrics body.
type promScrape []promSeries

// parseProm parses the Prometheus 0.0.4 text format: comment and blank
// lines are skipped, every other line is `name[{k="v",...}] value`.
func parseProm(r io.Reader) (promScrape, error) {
	var out promScrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

func parsePromLine(line string) (promSeries, error) {
	s := promSeries{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.labels)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// parseLabels reads `{k="v",...}` at the start of s into into and returns
// the index just past the closing brace. Values may contain escaped
// quotes, backslashes and newlines.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return 0, fmt.Errorf("malformed label set")
		}
		key := s[i : i+eq]
		i += eq + 2
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		into[key] = val.String()
	}
}

// get sums every series named name whose labels include all of match
// (label pairs given as "key", "value", ...). A family with no matching
// series reads 0 — counters the daemon has not touched yet.
func (p promScrape) get(name string, match ...string) float64 {
	var total float64
	for _, s := range p {
		if s.name == name && labelsMatch(s.labels, match) {
			total += s.value
		}
	}
	return total
}

func labelsMatch(labels map[string]string, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// delta is after minus before for a counter (or a summed set of counters).
func delta(before, after promScrape, name string, match ...string) float64 {
	return after.get(name, match...) - before.get(name, match...)
}

// histDelta returns the observations and their total added to histogram
// name between two scrapes.
func histDelta(before, after promScrape, name string, match ...string) (count, total float64) {
	return delta(before, after, name+"_count", match...), delta(before, after, name+"_sum", match...)
}
