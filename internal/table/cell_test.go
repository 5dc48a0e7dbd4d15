package table

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// parseCellSeeds cover each branch of parseCell's grammar and bounds:
// signs, fractions, exponents, the 19-digit and 2^53 mantissa limits, the
// ±22 exponent limit, and inputs it must leave to strconv.
var parseCellSeeds = []string{
	"0", "-0", "+0", "-0.0", "1234.56", "-98.7", "+3", "007", "1e22", "1e23", "1e-22", "1e-23",
	"9007199254740991", "9007199254740992", "1234567890123456789", "12345678901234567890",
	"1.5e-7", "1.23456789e+06", "4.5E+3", "2e-0", "0e400", "1e99999999999999999999",
	"5e-324", "1.7976931348623157e+308", " 1", "1 ", "1.", ".5", "-", "+", "e5", "1e", "1e+",
	"1.e5", "0x1p-2", "inf", "-Inf", "NaN", "1_000", "1,5", "", "١",
}

// FuzzParseCell holds ReadCSV's fast cell parser to strconv.ParseFloat:
// whatever it accepts, strconv accepts too, with the same bits.
func FuzzParseCell(f *testing.F) {
	for _, s := range parseCellSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := parseCell(s)
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parseCell(%q) = %v, strconv refuses it: %v", s, v, err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("parseCell(%q) = %v (%#x), strconv %v (%#x)", s, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	})
}

// TestParseCellTakesWriteCSVShapes: the fast path must take the cells
// WriteCSV writes for corpus-like values — two-decimal amounts, sums in
// the millions (written with an exponent) and whole numbers — or ReadCSV
// silently falls back to strconv for every cell.
func TestParseCellTakesWriteCSVShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		var v float64
		switch i % 3 {
		case 0:
			v = math.Round(rng.Float64()*5000*100) / 100
		case 1:
			v = math.Round(rng.Float64()*3e7*100) / 100
		default:
			v = -float64(rng.Intn(1 << 20))
		}
		s := strconv.FormatFloat(v, 'g', -1, 64)
		got, ok := parseCell(s)
		if !ok {
			t.Fatalf("parseCell declined %q", s)
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("parseCell(%q) = %v, want %v", s, got, v)
		}
	}
}

// TestParseCellMatchesStrconv draws strings from parseCell's grammar with
// mantissas up to 20 digits and exponents to ±30, so both sides of every
// bound come up, and compares each accepted one with strconv.ParseFloat.
func TestParseCellMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for i := 0; i < 200000; i++ {
		var b []byte
		if rng.Intn(2) == 0 {
			b = append(b, "+-"[rng.Intn(2)])
		}
		digits := 1 + rng.Intn(20)
		point := rng.Intn(digits + 1)
		for d := 0; d < digits; d++ {
			if d == point && d > 0 {
				b = append(b, '.')
			}
			b = append(b, byte('0'+rng.Intn(10)))
		}
		if rng.Intn(2) == 0 {
			b = strconv.AppendInt(append(b, "eE"[rng.Intn(2)]), int64(rng.Intn(61)-30), 10)
		}
		s := string(b)
		v, ok := parseCell(s)
		if !ok {
			continue
		}
		accepted++
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("parseCell(%q) = %v, strconv %v, %v", s, v, want, err)
		}
	}
	if accepted < 50000 {
		t.Fatalf("only %d of 200000 grammar strings took the fast path", accepted)
	}
}
