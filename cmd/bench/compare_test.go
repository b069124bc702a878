package main

import (
	"strings"
	"testing"

	"sring"
)

func snapWith(entries ...entry) *snapshot {
	return &snapshot{Date: "2026-01-01", Entries: entries}
}

func baseEntry() entry {
	return entry{
		Name:        "Synthesize/MWD/SRing",
		NsPerOp:     1e6,
		AllocsPerOp: 1000,
		StageNs: map[string]stagePct{
			"construct": {P50: 2e6, P99: 4e6},
			"layout":    {P50: 1e4, P99: 5e4},
		},
	}
}

// An injected stage-p99 regression beyond the threshold must gate, naming
// the stage.
func TestCompareGatesOnP99(t *testing.T) {
	oldE, newE := baseEntry(), baseEntry()
	newE.StageNs = map[string]stagePct{
		"construct": {P50: 2e6, P99: 10e6}, // 2.5x the old p99
		"layout":    {P50: 1e4, P99: 5e4},
	}
	regressed := compareSnapshots(snapWith(oldE), snapWith(newE), 0.20)
	if len(regressed) != 1 || !strings.Contains(regressed[0], "p99(construct)") {
		t.Fatalf("regressed = %v, want one p99(construct) entry", regressed)
	}
}

// Stages whose old p99 sits below the absolute floor never gate: relative
// thresholds on microsecond stages would flag scheduler noise.
func TestCompareP99Floor(t *testing.T) {
	oldE, newE := baseEntry(), baseEntry()
	newE.StageNs = map[string]stagePct{
		"construct": {P50: 2e6, P99: 4e6},
		"layout":    {P50: 1e4, P99: 5e5}, // 10x, but old p99 = 50 µs < 1 ms floor
	}
	if regressed := compareSnapshots(snapWith(oldE), snapWith(newE), 0.20); len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none (below the p99 floor)", regressed)
	}
}

// Entries lacking stage data (older snapshots) compare on ns/op alone —
// adding stage_ns must not fail the comparison that introduces it.
func TestCompareMissingStageNs(t *testing.T) {
	oldE := baseEntry()
	oldE.StageNs = nil
	if regressed := compareSnapshots(snapWith(oldE), snapWith(baseEntry()), 0.20); len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none", regressed)
	}
}

// The pre-existing gates still fire alongside the new one.
func TestCompareGatesOnNsPerOp(t *testing.T) {
	newE := baseEntry()
	newE.NsPerOp = 2e6
	regressed := compareSnapshots(snapWith(baseEntry()), snapWith(newE), 0.20)
	if len(regressed) != 1 || !strings.Contains(regressed[0], "ns/op") {
		t.Fatalf("regressed = %v, want one ns/op entry", regressed)
	}
}

// When both runs hit the time limit, a node-throughput drop beyond the
// threshold gates: same budget, fewer explored nodes means the solver got
// slower.
func TestCompareGatesOnMILPNodes(t *testing.T) {
	oldE, newE := baseEntry(), baseEntry()
	oldE.MILPNodes, oldE.TimeLimitHit = 400, true
	newE.MILPNodes, newE.TimeLimitHit = 200, true // half the throughput
	regressed := compareSnapshots(snapWith(oldE), snapWith(newE), 0.20)
	if len(regressed) != 1 || !strings.Contains(regressed[0], "milp_nodes") {
		t.Fatalf("regressed = %v, want one milp_nodes entry", regressed)
	}
}

// A run that newly finishes within the limit must not gate on nodes:
// fewer nodes then means a smaller tree, not a slower solver. Neither
// does a small fluctuation inside the threshold.
func TestCompareMILPNodesNonRegressions(t *testing.T) {
	oldE, finished := baseEntry(), baseEntry()
	oldE.MILPNodes, oldE.TimeLimitHit = 400, true
	finished.MILPNodes, finished.TimeLimitHit = 50, false // proved optimal early
	if regressed := compareSnapshots(snapWith(oldE), snapWith(finished), 0.20); len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none (search finished within the limit)", regressed)
	}
	jitter := baseEntry()
	jitter.MILPNodes, jitter.TimeLimitHit = 340, true // -15% < 20% threshold
	if regressed := compareSnapshots(snapWith(oldE), snapWith(jitter), 0.20); len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none (inside threshold)", regressed)
	}
}

// stagePercentiles maps registry deltas onto the entry schema, skipping
// stages that never ran.
func TestStagePercentiles(t *testing.T) {
	reg := sring.DefaultRegistry()
	before := reg.Snapshot()
	reg.Histogram("pipeline.stage.construct.ns").Record(1000)
	reg.Histogram("pipeline.stage.construct.ns").Record(3000)
	got := stagePercentiles(reg.Snapshot().Sub(before))
	if len(got) != 1 {
		t.Fatalf("stages = %v, want construct only", got)
	}
	p, ok := got["construct"]
	if !ok || p.P99 < p.P50 || p.P99 < 1000 {
		t.Fatalf("construct percentiles = %+v", p)
	}
	if stagePercentiles(reg.Snapshot().Sub(reg.Snapshot())) != nil {
		t.Error("empty delta should yield nil stage map")
	}
}

// Snapshots with different entry sets gate only on the intersection, and
// entryNameDiff reports each side's exclusive names for the warning.
func TestCompareDifferingEntrySets(t *testing.T) {
	oldOnly := baseEntry()
	oldOnly.Name = "Synthesize/VOPD/SRing"
	newOnly := baseEntry()
	newOnly.Name = "Serve/MWD/SRing"
	newOnly.NsPerOp = 9e9 // huge, but unmatched entries must not gate

	oldSnap := snapWith(baseEntry(), oldOnly)
	newSnap := snapWith(baseEntry(), newOnly)

	if regressed := compareSnapshots(oldSnap, newSnap, 0.20); len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none: unmatched entries must not gate", regressed)
	}
	gotOld, gotNew := entryNameDiff(oldSnap, newSnap)
	if len(gotOld) != 1 || gotOld[0] != "Synthesize/VOPD/SRing" {
		t.Errorf("onlyOld = %v, want [Synthesize/VOPD/SRing]", gotOld)
	}
	if len(gotNew) != 1 || gotNew[0] != "Serve/MWD/SRing" {
		t.Errorf("onlyNew = %v, want [Serve/MWD/SRing]", gotNew)
	}
	sameOld, sameNew := entryNameDiff(oldSnap, oldSnap)
	if len(sameOld) != 0 || len(sameNew) != 0 {
		t.Errorf("identical snapshots diff = %v / %v, want empty", sameOld, sameNew)
	}
}
