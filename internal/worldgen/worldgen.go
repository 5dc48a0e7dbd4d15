package worldgen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/table"
)

// Config controls world generation.
type Config struct {
	Seed int64
	// NumClaims is the document size (paper: 1539).
	NumClaims int
	// NumSections partitions the document (Definition 8 granularity).
	NumSections int
	// Families, Regions, Scenarios factor the relation vocabulary
	// (|relations| = Families*Regions*Scenarios; paper identifies 1791).
	Families, Regions, Scenarios int
	// Fuels, Sectors, Measures factor the key vocabulary
	// (|keys| = Fuels*Sectors*Measures capped at KeyTarget; paper: 830).
	Fuels, Sectors, Measures int
	// YearStart/YearEnd span the attribute vocabulary (paper: 87 labels).
	YearStart, YearEnd int
	// NumFormulas is the formula vocabulary size (paper: 413).
	NumFormulas int
	// KeysPerRelation is how many indicator rows each relation holds.
	KeysPerRelation int
	// ErrorRate is the fraction of claims whose stated parameter
	// contradicts the data (the user study injects 25%; first drafts see
	// up to 40%).
	ErrorRate float64
	// ExplicitFraction is the share of explicit claims ("about half").
	ExplicitFraction float64
	// CandidateBreadth is how many candidate values the three checkers'
	// annotations mention per property beyond the truth (Table 1 input).
	CandidateBreadth int
}

// PaperScale reproduces the cardinalities of §6 "Dataset".
func PaperScale() Config {
	return Config{
		Seed:             2018,
		NumClaims:        1539,
		NumSections:      96,
		Families:         17,
		Regions:          35,
		Scenarios:        3, // 17*35*3 = 1785 ≈ 1791
		Fuels:            10,
		Sectors:          12,
		Measures:         7, // 840 ≈ 830
		YearStart:        1971,
		YearEnd:          2050, // 80 years + 7 aggregates = 87
		NumFormulas:      413,
		KeysPerRelation:  24,
		ErrorRate:        0.25,
		ExplicitFraction: 0.5,
		CandidateBreadth: 4,
	}
}

// SmallScale is a fast configuration for tests and examples.
func SmallScale() Config {
	return Config{
		Seed:             7,
		NumClaims:        120,
		NumSections:      8,
		Families:         4,
		Regions:          4,
		Scenarios:        2,
		Fuels:            5,
		Sectors:          4,
		Measures:         2,
		YearStart:        2000,
		YearEnd:          2040,
		NumFormulas:      24,
		KeysPerRelation:  12,
		ErrorRate:        0.25,
		ExplicitFraction: 0.5,
		CandidateBreadth: 3,
	}
}

func (c Config) withDefaults() Config {
	d := SmallScale()
	if c.NumClaims <= 0 {
		c.NumClaims = d.NumClaims
	}
	if c.NumSections <= 0 {
		c.NumSections = d.NumSections
	}
	if c.Families <= 0 {
		c.Families = d.Families
	}
	if c.Regions <= 0 {
		c.Regions = d.Regions
	}
	if c.Scenarios <= 0 {
		c.Scenarios = d.Scenarios
	}
	if c.Fuels <= 0 {
		c.Fuels = d.Fuels
	}
	if c.Sectors <= 0 {
		c.Sectors = d.Sectors
	}
	if c.Measures <= 0 {
		c.Measures = d.Measures
	}
	if c.YearEnd <= c.YearStart {
		c.YearStart, c.YearEnd = d.YearStart, d.YearEnd
	}
	if c.NumFormulas <= 0 {
		c.NumFormulas = d.NumFormulas
	}
	if c.KeysPerRelation <= 0 {
		c.KeysPerRelation = d.KeysPerRelation
	}
	if c.ErrorRate < 0 || c.ErrorRate > 1 {
		c.ErrorRate = d.ErrorRate
	}
	if c.ExplicitFraction < 0 || c.ExplicitFraction > 1 {
		c.ExplicitFraction = d.ExplicitFraction
	}
	if c.CandidateBreadth < 0 {
		c.CandidateBreadth = d.CandidateBreadth
	}
	return c
}

// CandidateLists is the breadth of the three checkers' annotations for one
// claim; Table 1 counts frequencies over these.
type CandidateLists struct {
	Relations, Keys, Attrs, Formulas []string
}

// World is a generated corpus + document pair.
type World struct {
	Config   Config
	Corpus   *table.Corpus
	Document *claims.Document
	// Candidates maps claim ID to its annotation candidate lists.
	Candidates map[int]CandidateLists
	// FormulaVocab is the distinct formula vocabulary in rank order
	// (rank 0 most frequent).
	FormulaVocab []string
}

// vocabulary words used to humanise codes.
var (
	familyNames = []string{
		"energy demand", "energy supply", "electricity generation",
		"installed capacity", "final consumption", "emissions",
		"investment", "energy prices", "fuel imports", "fuel exports",
		"capacity additions", "energy intensity", "power generation",
		"heat production", "refinery output", "energy access",
		"storage deployment", "grid expansion", "efficiency savings",
		"subsidy spending",
	}
	regionNames = []string{
		"global", "oecd", "non-oecd", "united states", "china", "india",
		"european union", "japan", "russia", "brazil", "africa",
		"middle east", "southeast asia", "latin america", "korea",
		"canada", "mexico", "australia", "indonesia", "germany",
		"france", "italy", "spain", "poland", "turkey", "iran",
		"saudi arabia", "nigeria", "egypt", "south africa", "argentina",
		"chile", "thailand", "vietnam", "pakistan", "bangladesh",
		"ukraine", "kazakhstan", "norway", "sweden",
	}
	scenarioNames = []string{
		"stated policies", "current policies", "sustainable development",
		"net zero", "announced pledges",
	}
	fuelNames = []string{
		"electricity", "coal", "oil", "natural gas", "solar pv", "wind",
		"nuclear", "hydro", "bioenergy", "geothermal", "hydrogen",
		"district heat",
	}
	sectorNames = []string{
		"demand", "supply", "generation", "consumption", "production",
		"capacity additions", "investment", "emissions", "imports",
		"exports", "access", "efficiency", "trade", "storage",
	}
	measureNames = []string{
		"total", "per capita", "industrial", "residential", "transport",
		"commercial", "agricultural", "urban", "rural",
	}
	growVerbs    = []string{"grew", "rose", "increased", "expanded", "climbed"}
	shrinkVerbs  = []string{"fell", "declined", "dropped", "contracted", "shrank"}
	reachVerbs   = []string{"reaching", "hitting", "attaining", "arriving at"}
	openerPhrase = []string{
		"According to the outlook,", "In the projections,",
		"The analysis shows that", "Over the period,",
		"The report finds that", "Under this trajectory,",
	}
	closerPhrase = []string{
		"driven by policy changes.", "reflecting market trends.",
		"as investment patterns shifted.", "in line with stated targets.",
		"amid changing fuel prices.", "supported by new capacity.",
	}
)

func code(s string) string {
	parts := strings.Fields(s)
	var b strings.Builder
	for _, p := range parts {
		if len(p) > 4 {
			p = p[:4]
		}
		b.WriteString(strings.ToUpper(p[:1]) + p[1:])
	}
	return b.String()
}

// keySpec is one indicator-key vocabulary entry.
type keySpec struct {
	code    string
	subject string // humanised, e.g. "total electricity demand"
	fuel    int
}

// relSpec is one relation vocabulary entry.
type relSpec struct {
	name     string
	family   int
	region   int
	scenario int
	keyIdx   []int // indexes into the key vocabulary
}

// formulaFamily categorises formulas for text rendering.
type formulaFamily int

const (
	famCAGR formulaFamily = iota
	famGrowth
	famLookup
	famRatio
	famShare
	famDiff
	famSum
	famAvg
	famThreshold
	famScaled
)

// formulaSpec is one vocabulary entry.
type formulaSpec struct {
	family   formulaFamily
	text     string  // canonical formula string
	constant float64 // for threshold/scaled variants
	aliases  int     // binding variables used
	attrVars int     // attribute variables used
	twoKeys  bool    // whether a and b use different keys
}

// buildFormulaVocab constructs n distinct formulas with the core templates
// first (they get the highest Zipf ranks, so the "top 10 formulas cover the
// majority of the claims" as in the user study).
func buildFormulaVocab(n int, rng *rand.Rand) []formulaSpec {
	base := []formulaSpec{
		{famCAGR, "POWER(a.A1 / b.A2, 1 / (A1 - A2)) - 1", 0, 2, 2, false},
		{famGrowth, "(a.A1 / b.A2) - 1", 0, 2, 2, false},
		{famLookup, "a.A1", 0, 1, 1, false},
		{famRatio, "a.A1 / b.A2", 0, 2, 2, false},
		{famShare, "(a.A1 / b.A1) * 100", 0, 2, 1, true},
		{famDiff, "a.A1 - b.A2", 0, 2, 2, false},
		{famSum, "a.A1 + b.A1", 0, 2, 1, true},
		{famAvg, "AVG(a.A1, b.A2)", 0, 2, 2, false},
		{famGrowth, "(a.A1 - b.A2) / b.A2", 0, 2, 2, false},
		{famLookup, "ABS(a.A1)", 0, 1, 1, false},
	}
	out := append([]formulaSpec(nil), base...)
	seen := map[string]bool{}
	for _, s := range out {
		seen[s.text] = true
	}
	// Variant generators supplying the long tail.
	for len(out) < n {
		var s formulaSpec
		switch rng.Intn(4) {
		case 0: // threshold with varying constant
			c := float64((rng.Intn(400) + 1) * 5)
			s = formulaSpec{famThreshold, fmt.Sprintf("a.A1 > %g", c), c, 1, 1, false}
		case 1: // scaled ratio
			c := float64(rng.Intn(997) + 2)
			s = formulaSpec{famScaled, fmt.Sprintf("(a.A1 / b.A2) * %g", c), c, 2, 2, false}
		case 2: // scaled difference
			c := float64(rng.Intn(97) + 2)
			s = formulaSpec{famScaled, fmt.Sprintf("(a.A1 - b.A2) / %g", c), c, 2, 2, false}
		default: // offset CAGR variants
			c := float64(rng.Intn(9)+1) / 100
			s = formulaSpec{famCAGR, fmt.Sprintf("POWER(a.A1 / b.A2, 1 / (A1 - A2)) - %g", 1+c), c, 2, 2, false}
		}
		if seen[s.text] {
			continue
		}
		seen[s.text] = true
		out = append(out, s)
	}
	return out[:n]
}

// zipfPick samples index in [0,n) with probability ∝ 1/(i+1)^s.
func zipfPick(rng *rand.Rand, n int, s float64) int {
	// Precomputing would be faster; n is small enough to sample directly.
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
	}
	u := rng.Float64() * total
	for i := 0; i < n; i++ {
		u -= math.Pow(float64(i+1), -s)
		if u <= 0 {
			return i
		}
	}
	return n - 1
}

// Generate builds the world.
func Generate(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	w := &World{
		Config:     cfg,
		Corpus:     table.NewCorpus(),
		Candidates: make(map[int]CandidateLists),
	}

	// --- Attribute vocabulary: years + aggregates. -------------------
	var years []string
	for y := cfg.YearStart; y <= cfg.YearEnd; y++ {
		years = append(years, strconv.Itoa(y))
	}
	aggregates := []string{"Total", "Average", "Peak", "Minimum", "H1", "H2", "Baseline"}
	attrs := append(append([]string(nil), years...), aggregates...)

	// --- Key vocabulary. ----------------------------------------------
	var keys []keySpec
	for f := 0; f < cfg.Fuels && f < len(fuelNames); f++ {
		for sct := 0; sct < cfg.Sectors && sct < len(sectorNames); sct++ {
			for ms := 0; ms < cfg.Measures && ms < len(measureNames); ms++ {
				k := keySpec{
					code:    code(measureNames[ms]) + code(fuelNames[f]) + code(sectorNames[sct]),
					subject: measureNames[ms] + " " + fuelNames[f] + " " + sectorNames[sct],
					fuel:    f,
				}
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("worldgen: empty key vocabulary")
	}

	// --- Relation vocabulary + data. ----------------------------------
	var rels []relSpec
	for fam := 0; fam < cfg.Families && fam < len(familyNames); fam++ {
		for rg := 0; rg < cfg.Regions && rg < len(regionNames); rg++ {
			for sc := 0; sc < cfg.Scenarios && sc < len(scenarioNames); sc++ {
				name := code(familyNames[fam]) + "_" + code(regionNames[rg]) + "_" + code(scenarioNames[sc])
				rels = append(rels, relSpec{name: name, family: fam, region: rg, scenario: sc})
			}
		}
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("worldgen: empty relation vocabulary")
	}

	// Populate each relation with KeysPerRelation rows over all years
	// (aggregates included): smooth exponential trends with mild noise.
	nYears := len(years)
	for ri := range rels {
		rel, err := table.NewRelation(rels[ri].name, "Index", attrs)
		if err != nil {
			return nil, err
		}
		// Deterministic per-relation key subset: stride through the key
		// vocabulary starting at a hash of the relation index.
		start := (ri * 131) % len(keys)
		used := map[int]bool{}
		for j := 0; len(rel.Keys()) < cfg.KeysPerRelation && j < len(keys); j++ {
			ki := (start + j*7) % len(keys)
			if used[ki] {
				continue
			}
			used[ki] = true
			rels[ri].keyIdx = append(rels[ri].keyIdx, ki)
			base := 50 + float64(rng.Float64()*5000)
			growth := 0.985 + float64(rng.Float64()*0.05) // -1.5% .. +3.5% per year
			row := make([]float64, len(attrs))
			var sum, peak, min float64
			min = math.Inf(1)
			for yi := 0; yi < nYears; yi++ {
				noise := 1 + float64((float64(rng.Float64())-0.5)*0.01) // the inner float64 keeps Float64 unfused too
				v := base * math.Pow(growth, float64(yi)) * noise
				v = math.Round(v*100) / 100
				row[yi] = v
				sum += v
				if v > peak {
					peak = v
				}
				if v < min {
					min = v
				}
			}
			// Aggregate columns derive from the year series.
			row[nYears+0] = math.Round(sum*100) / 100                 // Total
			row[nYears+1] = math.Round(sum/float64(nYears)*100) / 100 // Average
			row[nYears+2] = peak                                      // Peak
			row[nYears+3] = min                                       // Minimum
			row[nYears+4] = math.Round(sum/2*100) / 100               // H1
			row[nYears+5] = math.Round(sum/2*100) / 100               // H2
			row[nYears+6] = row[0]                                    // Baseline
			if err := rel.AddRow(keys[ki].code, row); err != nil {
				return nil, err
			}
		}
		rel.SetMeta("family", familyNames[rels[ri].family])
		rel.SetMeta("region", regionNames[rels[ri].region])
		rel.SetMeta("scenario", scenarioNames[rels[ri].scenario])
		if err := w.Corpus.Add(rel); err != nil {
			return nil, err
		}
	}

	// --- Formula vocabulary. -------------------------------------------
	vocab := buildFormulaVocab(cfg.NumFormulas, rng)
	for _, s := range vocab {
		w.FormulaVocab = append(w.FormulaVocab, s.text)
	}

	// --- Claims. --------------------------------------------------------
	doc := &claims.Document{Title: "Synthetic World Energy Outlook", Sections: cfg.NumSections}
	gen := &claimGen{cfg: cfg, rng: rng, rels: rels, keys: keys, years: years, vocab: vocab, corpus: w.Corpus}
	for id := 1; id <= cfg.NumClaims; id++ {
		c, cand, err := gen.claim(id)
		if err != nil {
			return nil, err
		}
		c.Section = (id - 1) * cfg.NumSections / cfg.NumClaims
		doc.Claims = append(doc.Claims, c)
		w.Candidates[c.ID] = cand
	}
	w.Document = doc
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
