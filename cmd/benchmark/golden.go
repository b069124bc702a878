package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"sring/internal/design"
)

// goldenJSON holds the expected outputs every run is checked against. The
// Table I rows agree with golden_test.go and EXPERIMENTS.md at their
// printed precision; the exact optima are proven by the MILP or the CP
// oracle, and the run cross-checks the MILP-proven ones with the CP search.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenDesign is the expected evaluation of one (app, method) design.
// The Table I columns are present only in the table1 rows; absent (nil)
// fields are not checked.
type goldenDesign struct {
	App           string   `json:"app"`
	Method        string   `json:"method"`
	LongestPathMM *float64 `json:"longest_path_mm"`
	WorstILdB     *float64 `json:"worst_il_db"`
	MaxSplitters  *int     `json:"max_splitters"`
	WorstILAlldB  *float64 `json:"worst_il_all_db"`
	Wavelengths   int      `json:"wavelengths"`
	LaserMW       float64  `json:"laser_mw"`
	Objective     float64  `json:"objective"`
	ProvenBy      string   `json:"proven_by"`
}

// goldenSolve is the expected outcome of the MPEG solve at its node limit.
type goldenSolve struct {
	NodeLimit   int     `json:"node_limit"`
	Objective   float64 `json:"objective"`
	Bound       float64 `json:"bound"`
	Gap         float64 `json:"gap"`
	Fingerprint string  `json:"node_fingerprint"`
}

type goldenFile struct {
	Table1    []goldenDesign `json:"table1"`
	Scale     []goldenDesign `json:"scale"`
	Exact     []goldenDesign `json:"exact"`
	MPEGBound goldenSolve    `json:"mpeg_bound"`
}

// goldenTol absorbs the six-decimal rounding of the stored values.
const goldenTol = 1e-6

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// index maps "app/method" to its golden row.
func index(rows []goldenDesign) map[string]goldenDesign {
	m := make(map[string]goldenDesign, len(rows))
	for _, r := range rows {
		m[r.App+"/"+r.Method] = r
	}
	return m
}

// checkDesign compares a design's evaluation with its golden row and names
// the first differing field.
func (g goldenDesign) checkDesign(m *design.Metrics) error {
	type field struct {
		name      string
		got, want float64
	}
	fields := []field{
		{"laser_mw", m.TotalLaserPowerMW, g.LaserMW},
		{"wavelengths", float64(m.NumWavelengths), float64(g.Wavelengths)},
	}
	if g.LongestPathMM != nil {
		fields = append(fields, field{"longest_path_mm", m.LongestPathMM, *g.LongestPathMM})
	}
	if g.WorstILdB != nil {
		fields = append(fields, field{"worst_il_db", m.WorstILdB, *g.WorstILdB})
	}
	if g.MaxSplitters != nil {
		fields = append(fields, field{"max_splitters", float64(m.MaxSplitters), float64(*g.MaxSplitters)})
	}
	if g.WorstILAlldB != nil {
		fields = append(fields, field{"worst_il_all_db", m.WorstILAlldB, *g.WorstILAlldB})
	}
	for _, f := range fields {
		if math.Abs(f.got-f.want) > goldenTol {
			return fmt.Errorf("%s/%s: %s = %.6f, golden %.6f", g.App, g.Method, f.name, f.got, f.want)
		}
	}
	return nil
}

// checkSolve compares the MPEG solve with the golden at the golden's node
// limit; other limits (the smoke test's) are checked by invariants only.
func (g goldenSolve) checkSolve(nodeLimit int, objective, bound, gap float64, fingerprint uint64) error {
	if nodeLimit != g.NodeLimit {
		return nil
	}
	want, err := strconv.ParseUint(g.Fingerprint, 0, 64)
	if err != nil {
		return fmt.Errorf("golden.json: node_fingerprint: %w", err)
	}
	if fingerprint != want {
		return fmt.Errorf("MPEG: node_fingerprint = %#x, golden %#x", fingerprint, want)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{{"objective", objective, g.Objective}, {"bound", bound, g.Bound}, {"gap", gap, g.Gap}} {
		if math.Abs(f.got-f.want) > goldenTol {
			return fmt.Errorf("MPEG: %s = %.6f, golden %.6f", f.name, f.got, f.want)
		}
	}
	return nil
}
