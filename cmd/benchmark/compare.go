package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare compares the untraced runs of two result files, per
// end-to-end metric and workload. b's median is worse when it is worse
// than a's by more than the metric's bound, better when it is better by
// more than the bound; within the bound it is unchanged. A metric whose
// run-to-run spread (quartile distance over median, on either side)
// exceeds its bound is unresolved unless every run of b reads worse, or
// every run reads better, than every run of a. It reports whether any
// metric got worse.
func runCompare(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b []runRecord
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	av, bv := samples(a), samples(b)
	var workloadNames []string
	for name := range av {
		if bv[name] != nil {
			workloadNames = append(workloadNames, name)
		}
	}
	sort.Strings(workloadNames)
	if len(workloadNames) == 0 {
		return false, fmt.Errorf("%s and %s share no untraced workload", aPath, bPath)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tchange\tbound\tspread\tverdict")
	anyWorse := false
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			xs, ys := av[wl][m.Name], bv[wl][m.Name]
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			ma, mb := medianF(xs), medianF(ys)
			sign := 1.0 // positive change = worse
			if m.Better == "higher" {
				sign = -1
			}
			change := 0.0
			if ma != 0 {
				change = sign * (mb - ma) / math.Abs(ma)
			}
			spread := math.Max(relSpread(xs), relSpread(ys))
			verdict := "unchanged"
			switch {
			case spread > m.Bound && !separated(xs, ys, sign):
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				anyWorse = true
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\n",
				wl, m.Name, ma, mb, 100*change, 100*m.Bound, 100*spread, verdict)
		}
	}
	return anyWorse, tw.Flush()
}

// samples groups the untraced runs' metric values by workload and name.
func samples(runs []runRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// separated reports whether every b run is on the same side of every a
// run: all worse, or all better.
func separated(xs, ys []float64, sign float64) bool {
	minA, maxA := minMax(xs)
	minB, maxB := minMax(ys)
	return sign*(minB-maxA) > 0 || sign*(minA-maxB) > 0
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), the definition the bounds were measured with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(math.Floor(h))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func medianF(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relSpread is the quartile distance over the median; 0 for fewer than two
// runs.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := medianF(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
