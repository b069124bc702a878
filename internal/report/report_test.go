package report

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sampleRows() []Row {
	return []Row{
		{Benchmark: "MWD", Method: "ORNoC", LongestPathMM: 1.8, WorstILdB: 5.2, MaxSplitters: 5, WorstILAlldB: 21.7, NumWavelengths: 8, TotalLaserPowerMW: 1.2},
		{Benchmark: "MWD", Method: "SRing", LongestPathMM: 0.4, WorstILdB: 4.1, MaxSplitters: 4, WorstILAlldB: 17.5, NumWavelengths: 5, TotalLaserPowerMW: 0.4},
		{Benchmark: "VOPD", Method: "SRing", LongestPathMM: 1.4, WorstILdB: 4.4, MaxSplitters: 4, WorstILAlldB: 17.7, NumWavelengths: 6, TotalLaserPowerMW: 0.5},
	}
}

func TestTable1(t *testing.T) {
	out := Table1(sampleRows())
	for _, want := range []string{"benchmark", "MWD", "VOPD", "ORNoC", "SRing", "5.20", "17.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
	// Separator between benchmark groups.
	if !strings.Contains(out, "---") {
		t.Error("Table1 missing group separator")
	}
}

func TestTable2(t *testing.T) {
	out := Table2(map[string]time.Duration{
		"MWD": 120 * time.Millisecond,
		"D26": 6320 * time.Millisecond,
	}, []string{"MWD", "D26", "missing"})
	if !strings.Contains(out, "0.120") || !strings.Contains(out, "6.320") {
		t.Errorf("Table2 output wrong:\n%s", out)
	}
	if strings.Contains(out, "missing") {
		t.Error("Table2 rendered a benchmark without data")
	}
	// MWD appears before D26 (given order).
	if strings.Index(out, "MWD") > strings.Index(out, "D26") {
		t.Error("Table2 order not respected")
	}
}

func TestFig7(t *testing.T) {
	out := Fig7(sampleRows())
	if !strings.Contains(out, "#wl=8") || !strings.Contains(out, "#wl=5") {
		t.Errorf("Fig7 missing wavelength labels:\n%s", out)
	}
	// The maximum-power row gets the full-width bar.
	lines := strings.Split(out, "\n")
	var ornocBar, sringBar int
	for _, l := range lines {
		if strings.Contains(l, "ORNoC") {
			ornocBar = strings.Count(l, "#")
		}
		if strings.Contains(l, "SRing") && strings.Contains(l, "0.400") {
			sringBar = strings.Count(l, "#")
		}
	}
	if ornocBar <= sringBar {
		t.Errorf("bar lengths do not reflect power: ORNoC %d vs SRing %d", ornocBar, sringBar)
	}
}

func TestHistogram(t *testing.T) {
	values := []float64{1, 1.2, 1.4, 2, 2.2, 3, 5}
	out := Histogram("il_w", values, 0.5, 5)
	if !strings.Contains(out, "7 feasible solutions") {
		t.Errorf("Histogram missing count:\n%s", out)
	}
	if !strings.Contains(out, "<-- SRing") {
		t.Errorf("Histogram missing reference marker:\n%s", out)
	}
	// Reference extends the range: first bin starts at 0.5.
	if !strings.Contains(out, "0.5") {
		t.Errorf("Histogram range does not include reference:\n%s", out)
	}
}

func TestHistogramEmpty(t *testing.T) {
	out := Histogram("wl", nil, 4, 10)
	if !strings.Contains(out, "no feasible solutions") || !strings.Contains(out, "SRing: 4") {
		t.Errorf("empty Histogram wrong:\n%s", out)
	}
	out = Histogram("wl", nil, math.NaN(), 10)
	if strings.Contains(out, "SRing:") {
		t.Errorf("NaN reference should be omitted:\n%s", out)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	// All-equal values must not divide by zero.
	out := Histogram("x", []float64{2, 2, 2}, 2, 4)
	if !strings.Contains(out, "3 feasible") {
		t.Errorf("degenerate Histogram wrong:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := CSV(sampleRows())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "benchmark,method,") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], "MWD,ORNoC,1.8,5.2,5,21.7,8,1.2") {
		t.Errorf("CSV row wrong: %s", lines[1])
	}
}

func TestSummary(t *testing.T) {
	s := Summary("#wl", 5, []float64{9, 8, 12})
	if !strings.Contains(s, "beats") || strings.Contains(s, "NOT") {
		t.Errorf("Summary wrong: %s", s)
	}
	s = Summary("#wl", 10, []float64{9, 8, 12})
	if !strings.Contains(s, "does NOT beat") {
		t.Errorf("Summary wrong: %s", s)
	}
	s = Summary("#wl", 5, nil)
	if !strings.Contains(s, "no feasible") {
		t.Errorf("Summary wrong: %s", s)
	}
}

func TestIntHistogramValues(t *testing.T) {
	out := IntHistogramValues([]int{1, 2, 3})
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Errorf("IntHistogramValues = %v", out)
	}
}
