// Package report renders the paper's tables and figures as text: Table I
// (the four-method comparison), Table II (SRing runtimes), Fig. 7 (total
// laser power and wavelength usage), and Fig. 8 (random-solution
// histograms). It also emits CSV for downstream plotting.
package report

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Row is one method's metrics on one benchmark (a cell group of Table I).
type Row struct {
	Benchmark string
	Method    string
	// Table I columns.
	LongestPathMM float64 // L
	WorstILdB     float64 // il_w
	MaxSplitters  int     // #sp_w
	WorstILAlldB  float64 // il_w_all
	// Fig. 7 values.
	NumWavelengths    int
	TotalLaserPowerMW float64
}

// Table1 renders the comparison table in the paper's layout: one line per
// method per benchmark.
func Table1(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %8s %8s %6s %10s\n",
		"benchmark", "method", "L[mm]", "il_w[dB]", "#sp_w", "il_all[dB]")
	last := ""
	for _, r := range rows {
		if r.Benchmark != last && last != "" {
			b.WriteString(strings.Repeat("-", 56) + "\n")
		}
		last = r.Benchmark
		fmt.Fprintf(&b, "%-10s %-9s %8.2f %8.2f %6d %10.2f\n",
			r.Benchmark, r.Method, r.LongestPathMM, r.WorstILdB, r.MaxSplitters, r.WorstILAlldB)
	}
	return b.String()
}

// Table2 renders SRing's program runtimes (paper Table II).
func Table2(runtimes map[string]time.Duration, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s\n", "benchmark", "runtime[s]")
	for _, name := range order {
		d, ok := runtimes[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-10s %12.3f\n", name, d.Seconds())
	}
	return b.String()
}

// StageTiming breaks one SRing synthesis run into its pipeline stages
// (from the telemetry trace): sub-ring construction, layout, wavelength
// assignment (with the MILP share listed separately) and PDN construction.
type StageTiming struct {
	Total   time.Duration
	Cluster time.Duration
	Layout  time.Duration
	Assign  time.Duration
	MILP    time.Duration
	PDN     time.Duration
}

// Table2Stages renders the per-stage timing breakdown that accompanies
// Table II when telemetry is collected. The MILP column is the share of the
// assignment time spent in the exact solver (zero when the heuristic result
// is kept).
func Table2Stages(stages map[string]StageTiming, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %10s %10s\n",
		"benchmark", "total[s]", "cluster[s]", "layout[s]", "assign[s]", "milp[s]", "pdn[s]")
	for _, name := range order {
		st, ok := stages[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-10s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			name, st.Total.Seconds(), st.Cluster.Seconds(), st.Layout.Seconds(),
			st.Assign.Seconds(), st.MILP.Seconds(), st.PDN.Seconds())
	}
	return b.String()
}

// Fig7 renders total laser power and wavelength usage per method per
// benchmark with proportional ASCII bars (the paper's grouped bar chart).
func Fig7(rows []Row) string {
	var maxPower float64
	for _, r := range rows {
		if r.TotalLaserPowerMW > maxPower {
			maxPower = r.TotalLaserPowerMW
		}
	}
	const width = 40
	var b strings.Builder
	fmt.Fprintf(&b, "total laser power [mW] (bar) and wavelength usage (#wl)\n")
	last := ""
	for _, r := range rows {
		if r.Benchmark != last {
			fmt.Fprintf(&b, "\n%s\n", r.Benchmark)
			last = r.Benchmark
		}
		n := 0
		if maxPower > 0 {
			n = int(math.Round(r.TotalLaserPowerMW / maxPower * width))
		}
		fmt.Fprintf(&b, "  %-9s %8.3f mW |%-*s| #wl=%d\n",
			r.Method, r.TotalLaserPowerMW, width, strings.Repeat("#", n), r.NumWavelengths)
	}
	return b.String()
}

// Histogram renders the distribution of values in nbins equal-width bins
// between the data extremes, marking the reference value (e.g. SRing's
// result) with "<-- SRing". Matches the paper's Fig. 8 presentation
// (#fea_sol per bin).
func Histogram(title string, values []float64, reference float64, nbins int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d feasible solutions)\n", title, len(values))
	if len(values) == 0 {
		fmt.Fprintf(&b, "  (no feasible solutions)\n")
		if !math.IsNaN(reference) {
			fmt.Fprintf(&b, "  SRing: %.3g\n", reference)
		}
		return b.String()
	}
	if nbins < 1 {
		nbins = 10
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if !math.IsNaN(reference) {
		lo = math.Min(lo, reference)
		hi = math.Max(hi, reference)
	}
	if hi-lo < 1e-12 {
		hi = lo + 1
	}
	binW := (hi - lo) / float64(nbins)
	counts := make([]int, nbins)
	for _, v := range values {
		i := int((v - lo) / binW)
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	const width = 40
	refBin := -1
	if !math.IsNaN(reference) {
		refBin = int((reference - lo) / binW)
		if refBin >= nbins {
			refBin = nbins - 1
		}
	}
	for i, c := range counts {
		bar := 0
		if maxCount > 0 {
			bar = int(math.Round(float64(c) / float64(maxCount) * width))
		}
		mark := ""
		if i == refBin {
			mark = "  <-- SRing"
		}
		fmt.Fprintf(&b, "  (%7.3g, %7.3g] %6d |%-*s|%s\n",
			lo+float64(i)*binW, lo+float64(i+1)*binW, c, width, strings.Repeat("#", bar), mark)
	}
	return b.String()
}

// CSV renders the rows as comma-separated values with a header, sorted by
// (benchmark, method) order of first appearance preserved.
func CSV(rows []Row) string {
	var b strings.Builder
	b.WriteString("benchmark,method,longest_path_mm,il_w_db,max_splitters,il_all_db,num_wavelengths,total_laser_power_mw\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%.6g,%.6g,%d,%.6g,%d,%.6g\n",
			r.Benchmark, r.Method, r.LongestPathMM, r.WorstILdB, r.MaxSplitters,
			r.WorstILAlldB, r.NumWavelengths, r.TotalLaserPowerMW)
	}
	return b.String()
}

// IntHistogramValues converts integer samples (e.g. wavelength counts) to
// floats for Histogram.
func IntHistogramValues(values []int) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = float64(v)
	}
	return out
}

// Summary compares SRing's metric against the best feasible random value,
// reporting the paper's "better than all feasible solutions" check.
func Summary(metric string, reference float64, values []float64) string {
	if len(values) == 0 {
		return fmt.Sprintf("%s: SRing %.3g; no feasible random solutions to compare\n", metric, reference)
	}
	best := values[0]
	for _, v := range values {
		best = math.Min(best, v)
	}
	verdict := "beats"
	if reference > best {
		verdict = "does NOT beat"
	}
	return fmt.Sprintf("%s: SRing %.3g %s best random %.3g (of %d feasible)\n",
		metric, reference, verdict, best, len(values))
}
