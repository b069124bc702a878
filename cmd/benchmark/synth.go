package main

import (
	"context"

	"sring"
	"sring/internal/design"
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pipeline"
)

// outcome is what one op produced.
type outcome struct {
	d      *design.Design
	m      *design.Metrics
	res    *milp.Result // mpeg-bound only
	proven bool         // optimality proven
	gap    float64      // relative optimality gap (0 when not applicable)
}

// synthesize runs one synthesis through the program's public entry point,
// sring.SynthesizeContext, and evaluates the design. On traced passes rec
// receives the pipeline's spans and counters, and the evaluation is
// recorded as a design.metrics span of the benchmark's own.
func synthesize(ctx context.Context, app *netlist.Application, method string, opt pipeline.Options, rec *obs.Recorder) (*outcome, error) {
	opt.Recorder = rec
	d, err := sring.SynthesizeContext(ctx, app, sring.Method(method), opt)
	if err != nil {
		return nil, err
	}
	sp := rec.StartSpan("design.metrics")
	m, err := d.Metrics()
	sp.End()
	if err != nil {
		return nil, err
	}
	return &outcome{d: d, m: m}, nil
}
