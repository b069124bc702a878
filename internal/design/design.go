// Package design assembles and evaluates complete WRONoC ring-router
// designs. All four synthesis methods in this repository (SRing, ORNoC,
// CTORing, XRing) produce the same raw material — a set of directed ring
// waveguides plus one reserved signal path per message — and share this
// package's pipeline for everything downstream: physical layout, insertion
// loss accounting, wavelength assignment, PDN construction, and the Table I
// / Fig. 7 metrics.
//
// Sharing the downstream pipeline is what makes the comparison fair, and
// mirrors the paper's setup ("we implemented the three methods ... and
// applied the technology parameters from [22]").
package design

import (
	"fmt"
	"math"
	"time"

	"sring/internal/layout"
	"sring/internal/loss"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pdn"
	"sring/internal/ring"
	"sring/internal/wavelength"
)

// Design is a fully synthesised router.
type Design struct {
	App    *netlist.Application
	Method string
	// Levels is the construction's hierarchy depth: 0 for flat methods,
	// 1 for an all-intra SRing clustering, 2 for the paper's two-level
	// shape, more when the multi-level constructor recursed.
	Levels int
	Rings  []*ring.Ring
	// Infos holds one entry per message, aligned with App.Messages, with
	// the routed path and its layout insertion loss L_s.
	Infos      []wavelength.PathInfo
	Assignment *wavelength.Assignment
	Layout     *layout.Result
	PDN        *pdn.Network
	Tech       loss.Tech
	// AssignStats reports how the wavelength assignment was obtained.
	AssignStats *wavelength.Stats
	// SynthesisTime is the wall-clock time of the full synthesis, set by
	// the method front-ends (Table II).
	SynthesisTime time.Duration
	// Cancelled reports that synthesis was interrupted by context
	// cancellation and this design is the best feasible result found so
	// far (a best-so-far clustering, a MILP incumbent) rather than the
	// fully converged one. The design is still complete and valid.
	Cancelled bool
}

// LayoutResult aliases the layout engine's result for the staged pipeline's
// signatures, so pipeline code can name it without importing the layout
// package directly.
type LayoutResult = layout.Result

// Options configures Finish.
type Options struct {
	// Tech is the technology parameter set; the zero value means
	// loss.Default().
	Tech loss.Tech
	// PDN selects the PDN construction convention for the method.
	PDN pdn.Config
	// PDNAllTwoSender treats every sender node as having the full
	// two-sender complement, the ORNoC/CTORing convention of equipping
	// each node with a sender per ring waveguide (paper Sec. II-C),
	// regardless of which rings its messages actually use.
	PDNAllTwoSender bool
	// MRRFullComplement applies the same convention to MRR populations:
	// every node carries its complete sender and receiver MRR arrays on
	// every ring waveguide, so a signal passing a node runs the full
	// gauntlet. SRing and XRing prune unused senders/receivers; ORNoC and
	// CTORing do not (paper Sec. II-C).
	MRRFullComplement bool
	// Assign configures the wavelength assignment.
	Assign wavelength.Options
	// PresetAssignment, when non-nil, is used verbatim (after collision
	// verification) instead of running the optimiser — for methods like
	// ORNoC whose wavelength assignment is part of the method itself.
	PresetAssignment *wavelength.Assignment
	// Obs, when non-nil, is the parent span under which Finish records its
	// stage spans (layout, loss pricing, wavelength assignment, PDN).
	Obs *obs.Span
}

// Finish completes a design: it lays out the rings, prices every path's
// insertion loss, assigns wavelengths, and builds the PDN. It is the
// single-call composition of the exported stage functions (RouteLayout,
// PriceLoss, UsePreset, BuildPDN) that the staged pipeline engine runs —
// and caches — individually.
//
// paths must contain exactly one entry per message of app, in message
// order, each produced by ring.Route on one of the given rings.
func Finish(app *netlist.Application, method string, rings []*ring.Ring, paths []ring.Path, opt Options) (*Design, error) {
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("design: %w", err)
	}
	if len(paths) != len(app.Messages) {
		return nil, fmt.Errorf("design: %d paths for %d messages", len(paths), len(app.Messages))
	}
	ringByID := make(map[int]*ring.Ring, len(rings))
	for _, r := range rings {
		ringByID[r.ID] = r
	}
	for i, p := range paths {
		if p.Msg != app.Messages[i] {
			return nil, fmt.Errorf("design: path %d carries message %v, want %v", i, p.Msg, app.Messages[i])
		}
		if _, ok := ringByID[p.RingID]; !ok {
			return nil, fmt.Errorf("design: path %d rides unknown ring %d", i, p.RingID)
		}
	}
	tech, err := loss.Normalize(opt.Tech)
	if err != nil {
		return nil, err
	}

	lay, err := RouteLayout(app, rings, opt.Obs)
	if err != nil {
		return nil, err
	}
	infos, err := PriceLoss(app, rings, paths, lay, tech, opt.MRRFullComplement, opt.Obs)
	if err != nil {
		return nil, err
	}

	var assignment *wavelength.Assignment
	var stats *wavelength.Stats
	if opt.PresetAssignment != nil {
		assignment, stats, err = UsePreset(infos, opt.PresetAssignment, opt.Obs)
		if err != nil {
			return nil, err
		}
	} else {
		assignOpts := opt.Assign
		if assignOpts.Weights == (wavelength.Weights{}) {
			assignOpts.Weights = wavelength.DefaultWeights()
			assignOpts.Weights.SplitterStageDB = tech.SplitterStageDB()
		}
		assignOpts.Obs = opt.Obs
		assignment, stats, err = wavelength.Assign(infos, assignOpts)
		if err != nil {
			return nil, err
		}
	}

	network, err := BuildPDN(app, infos, assignment, opt.PDN, opt.PDNAllTwoSender, opt.Obs)
	if err != nil {
		return nil, err
	}

	return &Design{
		App:         app,
		Method:      method,
		Rings:       rings,
		Infos:       infos,
		Assignment:  assignment,
		Layout:      lay,
		PDN:         network,
		Tech:        tech,
		AssignStats: stats,
		Cancelled:   stats != nil && stats.Cancelled,
	}, nil
}

// RouteLayout runs the physical layout stage: it routes every ring
// waveguide and counts bends and crossings, recording the design.layout
// span under parent.
func RouteLayout(app *netlist.Application, rings []*ring.Ring, parent *obs.Span) (*layout.Result, error) {
	lsp := parent.StartSpan("design.layout")
	lay, err := layout.Route(app, rings)
	if err != nil {
		lsp.End()
		return nil, err
	}
	lsp.SetInt("rings", int64(len(rings)))
	lsp.SetInt("crossings", int64(lay.TotalCrossings))
	lsp.SetInt("bends", int64(lay.TotalBends))
	lsp.SetFloat("waveguide_mm", lay.TotalWaveguideMM)
	lsp.End()
	return lay, nil
}

// PriceLoss runs the loss-pricing stage: it derives each path's insertion
// loss L_s from the layout under the given technology, recording the
// design.loss span under parent. mrrFullComplement selects the ORNoC/
// CTORing convention of populating every node's complete MRR arrays on
// every ring (see Options.MRRFullComplement).
func PriceLoss(app *netlist.Application, rings []*ring.Ring, paths []ring.Path, lay *layout.Result, tech loss.Tech, mrrFullComplement bool, parent *obs.Span) ([]wavelength.PathInfo, error) {
	ringByID := make(map[int]*ring.Ring, len(rings))
	for _, r := range rings {
		ringByID[r.ID] = r
	}
	// Off-resonance MRR population per (node, ring): one MRR per message
	// sent plus one per message received by the node on that ring (the
	// assignment-independent upper bound used for through-loss). Under the
	// full-complement convention the node carries its complete arrays on
	// every ring instead.
	mrrs := make(map[[2]int]int)
	if mrrFullComplement {
		total := make(map[int]int)
		for _, p := range paths {
			total[int(p.Msg.Src)]++
			total[int(p.Msg.Dst)]++
		}
		for _, r := range rings {
			for _, n := range r.Order {
				mrrs[[2]int{int(n), r.ID}] = total[int(n)]
			}
		}
	} else {
		for _, p := range paths {
			mrrs[[2]int{int(p.Msg.Src), p.RingID}]++
			mrrs[[2]int{int(p.Msg.Dst), p.RingID}]++
		}
	}

	losssp := parent.StartSpan("design.loss")
	infos := make([]wavelength.PathInfo, len(paths))
	for i, p := range paths {
		r := ringByID[p.RingID]
		bends, err := lay.PathBends(p)
		if err != nil {
			losssp.End()
			return nil, err
		}
		crossings, err := lay.PathCrossings(p)
		if err != nil {
			losssp.End()
			return nil, err
		}
		passed := 0
		for k := 1; k < len(p.Segs); k++ {
			node := r.Order[p.Segs[k]] // entry node of the k-th segment
			passed += mrrs[[2]int{int(node), p.RingID}]
		}
		g := loss.PathGeometry{
			LengthMM:   p.Length,
			Bends:      bends,
			Crossings:  crossings,
			MRRsPassed: passed,
		}
		infos[i] = wavelength.PathInfo{Path: p, LossDB: tech.PathDB(g)}
	}
	worst := 0.0
	for _, pi := range infos {
		if pi.LossDB > worst {
			worst = pi.LossDB
		}
	}
	losssp.SetInt("paths", int64(len(infos)))
	losssp.SetFloat("worst_il_db", worst)
	losssp.End()
	return infos, nil
}

// UsePreset runs the assignment stage for methods whose wavelength
// assignment is part of the method itself (e.g. ORNoC's first-fit): the
// preset is cloned, normalised, verified collision-free and evaluated.
// The input assignment is not modified.
func UsePreset(infos []wavelength.PathInfo, preset *wavelength.Assignment, parent *obs.Span) (*wavelength.Assignment, *wavelength.Stats, error) {
	assignment := preset.Clone()
	assignment.Normalize()
	if err := wavelength.Verify(infos, assignment); err != nil {
		return nil, nil, fmt.Errorf("design: preset assignment: %w", err)
	}
	o := wavelength.Evaluate(infos, assignment, wavelength.DefaultWeights())
	stats := &wavelength.Stats{Heuristic: o, Final: o}
	if sp := parent.StartSpan("wavelength.assign"); sp.Enabled() {
		sp.SetBool("preset", true)
		sp.SetInt("paths", int64(len(infos)))
		sp.SetInt("wavelengths", int64(assignment.NumLambda))
		sp.SetFloat("final_objective", o.Value)
		sp.End()
	}
	return assignment, stats, nil
}

// BuildPDN runs the PDN stage: it derives the sender and splitter demand
// implied by the assignment and builds the power-distribution network,
// recording the design.pdn span under parent. allTwoSender applies the
// ORNoC/CTORing full two-sender convention (see Options.PDNAllTwoSender).
func BuildPDN(app *netlist.Application, infos []wavelength.PathInfo, assignment *wavelength.Assignment, cfg pdn.Config, allTwoSender bool, parent *obs.Span) (*pdn.Network, error) {
	senderNodes := app.Senders()
	twoSender := make(map[netlist.NodeID]bool)
	ringsPerNode := make(map[netlist.NodeID]map[int]bool)
	for _, pi := range infos {
		n := pi.SenderNode()
		if ringsPerNode[n] == nil {
			ringsPerNode[n] = make(map[int]bool)
		}
		ringsPerNode[n][pi.SenderRing()] = true
	}
	for n, rs := range ringsPerNode {
		if len(rs) >= 2 {
			twoSender[n] = true
		}
	}
	if allTwoSender {
		for _, n := range senderNodes {
			twoSender[n] = true
		}
	}
	psp := parent.StartSpan("design.pdn")
	splitters := wavelength.NodeSplitters(infos, assignment)
	network, err := pdn.Build(app, senderNodes, twoSender, splitters, cfg)
	if err != nil {
		psp.End()
		return nil, err
	}
	psp.SetInt("senders", int64(len(senderNodes)))
	psp.SetInt("two_sender", int64(len(twoSender)))
	psp.SetInt("total_splitters", int64(network.TotalSplitters))
	psp.End()
	return network, nil
}

// Metrics are the evaluation results the paper reports per design:
// Table I columns, Fig. 7 values, and supporting detail.
type Metrics struct {
	// LongestPathMM is L: the length of the longest signal path.
	LongestPathMM float64
	// WorstILdB is il_w: worst-case insertion loss excluding PDN losses.
	WorstILdB float64
	// MaxSplitters is #sp_w: the largest number of splitters passed by any
	// signal path's laser power.
	MaxSplitters int
	// WorstILAlldB is il_w_all: the worst-case insertion loss of a
	// wavelength including PDN losses.
	WorstILAlldB float64
	// NumWavelengths is #wl.
	NumWavelengths int
	// TotalLaserPowerMW is the Fig. 7 headline: the sum over used
	// wavelengths of the laser power covering that wavelength's worst-case
	// loss.
	TotalLaserPowerMW float64
	// PerLambdaWorstILdB lists il_λ^max (including PDN) per wavelength.
	PerLambdaWorstILdB []float64
	// NodeSplitters is the number of node-level PDN splitters.
	NodeSplitters int
	// TotalSplitters counts all fabricated 1x2 splitters.
	TotalSplitters int
	// TotalCrossings, TotalBends and TotalWaveguideMM summarise the layout.
	TotalCrossings   int
	TotalBends       int
	TotalWaveguideMM float64
	// NumRings is the number of ring waveguides.
	NumRings int
	// SenderMRRs and ReceiverMRRs count the microring resonators the
	// design fabricates: one sender MRR per distinct wavelength a node
	// modulates onto a ring, one receiver MRR per distinct wavelength it
	// drops from a ring. A device-cost metric alongside the power metrics.
	SenderMRRs   int
	ReceiverMRRs int
}

// Metrics evaluates the design.
func (d *Design) Metrics() (*Metrics, error) {
	m := &Metrics{
		NumWavelengths:   d.Assignment.NumLambda,
		NodeSplitters:    len(d.PDN.NodeSplitter),
		TotalSplitters:   d.PDN.TotalSplitters,
		TotalCrossings:   d.Layout.TotalCrossings,
		TotalBends:       d.Layout.TotalBends,
		TotalWaveguideMM: d.Layout.TotalWaveguideMM,
		NumRings:         len(d.Rings),
	}
	perLambda := make([]float64, d.Assignment.NumLambda)
	for i, pi := range d.Infos {
		if pi.Path.Length > m.LongestPathMM {
			m.LongestPathMM = pi.Path.Length
		}
		if pi.LossDB > m.WorstILdB {
			m.WorstILdB = pi.LossDB
		}
		sp, err := d.PDN.SplittersOnFeed(pi.SenderNode())
		if err != nil {
			return nil, err
		}
		if sp > m.MaxSplitters {
			m.MaxSplitters = sp
		}
		feed, err := d.PDN.FeedLossDB(pi.SenderNode(), d.Tech)
		if err != nil {
			return nil, err
		}
		all := pi.LossDB + feed
		l := d.Assignment.Lambda[i]
		if all > perLambda[l] {
			perLambda[l] = all
		}
		if all > m.WorstILAlldB {
			m.WorstILAlldB = all
		}
	}
	m.PerLambdaWorstILdB = perLambda
	m.TotalLaserPowerMW = d.Tech.TotalLaserPowerMW(perLambda)

	// Device counts: distinct (node, ring, λ) triples on each side.
	senders := make(map[[3]int]bool)
	receivers := make(map[[3]int]bool)
	for i, pi := range d.Infos {
		l := d.Assignment.Lambda[i]
		senders[[3]int{int(pi.Path.Msg.Src), pi.Path.RingID, l}] = true
		receivers[[3]int{int(pi.Path.Msg.Dst), pi.Path.RingID, l}] = true
	}
	m.SenderMRRs = len(senders)
	m.ReceiverMRRs = len(receivers)
	return m, nil
}

// Validate re-checks the design's internal consistency: paths re-derivable
// from their rings, collision-free assignment, and PDN coverage.
func (d *Design) Validate() error {
	ringByID := make(map[int]*ring.Ring, len(d.Rings))
	for _, r := range d.Rings {
		if err := r.Validate(); err != nil {
			return err
		}
		ringByID[r.ID] = r
	}
	for i, pi := range d.Infos {
		r, ok := ringByID[pi.Path.RingID]
		if !ok {
			return fmt.Errorf("design: path %d on unknown ring %d", i, pi.Path.RingID)
		}
		want, err := ring.Route(d.App, r, pi.Path.Msg)
		if err != nil {
			return fmt.Errorf("design: path %d: %w", i, err)
		}
		if math.Abs(want.Length-pi.Path.Length) > 1e-9 || len(want.Segs) != len(pi.Path.Segs) {
			return fmt.Errorf("design: path %d inconsistent with ring %d", i, pi.Path.RingID)
		}
	}
	if err := wavelength.Verify(d.Infos, d.Assignment); err != nil {
		return err
	}
	for _, pi := range d.Infos {
		if _, err := d.PDN.SplittersOnFeed(pi.SenderNode()); err != nil {
			return err
		}
	}
	return nil
}
