package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"sring/internal/netlist"
	"sring/internal/pipeline"
)

// TestSmoke runs every workload at its smallest size — one pass, MPEG at
// 5 nodes, 20 serve requests — untraced and traced. It checks that each
// run is correct, that the traced run's ledger holds, and that every
// metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workload), len(workloads))
	}
	for _, w := range spec.Workload {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				res, err := runWorkload(context.Background(), config{workload: w.Name, seed: 1, trace: traced, minimal: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("incorrect: %v", res.Notes)
				}
				var out bytes.Buffer
				printResult(&out, w.Name, res)
				for _, m := range want {
					if !strings.Contains(out.String(), "\n"+m.Name+" ") || res.Metrics[m.Name].Unit != m.Unit {
						t.Errorf("metric %s [%s] not printed with its unit", m.Name, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// A golden mismatch must name the differing field.
func TestGoldenMismatchNamesField(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	row := index(g.Table1)["MWD/SRing"]
	out, err := synthesize(context.Background(), netlist.MWD(), row.Method, pipeline.Options{Parallelism: parallelism}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := row.checkDesign(out.m); err != nil {
		t.Fatalf("golden row does not match: %v", err)
	}
	out.m.WorstILAlldB += 0.01
	if err := row.checkDesign(out.m); err == nil || !strings.Contains(err.Error(), "worst_il_all_db") {
		t.Fatalf("mismatch not named: %v", err)
	}
}
