package cluster

import (
	"context"
	"fmt"

	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pdn"
	"sring/internal/pipeline"
	"sring/internal/ring"
	"sring/internal/wavelength"
)

func init() {
	pipeline.Register("SRing", Construct)
}

// Construct is the SRing pipeline constructor (paper Sec. III-A): sub-ring
// construction by clustering, then per-message routing on the selected
// rings. The wavelength objective uses the paper's weights with the
// splitter term taken from the technology at assignment time, keeping the
// construction itself tech-independent (and cacheable across Tech sweeps).
func Construct(ctx context.Context, app *netlist.Application, opt pipeline.Options, parent *obs.Span) (*pipeline.Construction, error) {
	res, err := SynthesizeContext(ctx, app, Options{
		TreeHeight:       opt.TreeHeight,
		MaxInitialTrials: opt.ClusterTrials,
		Parallelism:      opt.Parallelism,
		Obs:              parent,
	})
	if err != nil {
		return nil, err
	}
	ringByID := make(map[int]*ring.Ring, len(res.Rings))
	for _, r := range res.Rings {
		ringByID[r.ID] = r
	}
	paths := make([]ring.Path, len(app.Messages))
	for i, m := range app.Messages {
		r, ok := ringByID[res.RingForMessage[i]]
		if !ok {
			return nil, fmt.Errorf("sring: message %d unmapped", i)
		}
		p, err := ring.Route(app, r, m)
		if err != nil {
			return nil, err
		}
		paths[i] = p
	}
	return &pipeline.Construction{
		Rings:                  res.Rings,
		Paths:                  paths,
		Levels:                 res.Levels,
		PDNStyle:               pdn.StyleShared,
		Weights:                wavelength.DefaultWeights(),
		SplitterWeightFromTech: true,
		Cancelled:              res.Cancelled,
	}, nil
}
