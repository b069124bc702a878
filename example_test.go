package sring_test

import (
	"fmt"
	"log"

	"sring"
	"sring/internal/sim"
)

// Synthesise the paper's running example (the MWD application) with SRing
// and inspect the headline metrics.
func ExampleSynthesize() {
	app := sring.MWD()
	d, err := sring.Synthesize(app, sring.MethodSRing, sring.Options{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := d.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d sub-rings, %d wavelengths, max %d splitters per path\n",
		d.Method, m.NumRings, m.NumWavelengths, m.MaxSplitters)
	// Output:
	// SRing: 5 sub-rings, 2 wavelengths, max 4 splitters per path
}

// Compare all four methods on one benchmark — one Table I row group.
func ExampleEvaluate() {
	res, err := sring.Evaluate(sring.MWD(), sring.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range sring.Methods() {
		fmt.Printf("%-8s #sp_w=%d\n", m, res[m].MaxSplitters)
	}
	// Output:
	// ORNoC    #sp_w=5
	// CTORing  #sp_w=5
	// XRing    #sp_w=6
	// SRing    #sp_w=4
}

// Define a custom application directly and synthesise a router for it.
func ExampleApplication() {
	app := &sring.Application{
		Name: "custom",
		Nodes: []sring.Node{
			{ID: 0, Name: "cpu"},
			{ID: 1, Name: "mem"},
			{ID: 2, Name: "dsp"},
		},
		Messages: []sring.Message{
			{Src: 0, Dst: 1, Bandwidth: 800},
			{Src: 1, Dst: 0, Bandwidth: 800},
			{Src: 0, Dst: 2, Bandwidth: 64},
		},
	}
	// Give the nodes placements (0.15 mm pitch grid).
	app.Nodes[1].Pos = app.Nodes[0].Pos.Add(0.15, 0)
	app.Nodes[2].Pos = app.Nodes[0].Pos.Add(0, 0.15)

	d, err := sring.Synthesize(app, sring.MethodSRing, sring.Options{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := d.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d wavelengths on %d rings\n", m.NumWavelengths, m.NumRings)
	// Output:
	// 2 wavelengths on 2 rings
}

// The paper's running example (Figs. 2 and 6): customise a ring router for
// the MWD application and inspect the resulting sub-ring structure, which
// nodes were clustered together, how each sub-ring is ordered and directed,
// where each message travels, and what the customisation saves against the
// classical sequential ring.
func ExampleSynthesize_runningExample() {
	app := sring.MWD()
	srd, err := sring.Synthesize(app, sring.MethodSRing, sring.Options{UseMILP: true})
	if err != nil {
		log.Fatal(err)
	}
	classical, err := sring.Synthesize(app, sring.MethodORNoC, sring.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("MWD application: %d nodes, %d messages\n\n", app.N(), app.M())
	fmt.Println("node placement (mm):")
	for _, n := range app.Nodes {
		fmt.Printf("  node %2d at %v\n", n.ID+1, n.Pos) // paper numbers nodes from 1
	}

	fmt.Println("\nSRing sub-rings (paper Fig. 2(e)):")
	for _, r := range srd.Rings {
		fmt.Printf("  %s\n", r)
	}

	fmt.Println("\nsignal paths:")
	for i, pi := range srd.Infos {
		fmt.Printf("  node %2d -> node %2d  on ring %d, λ%d, %.3f mm\n",
			pi.Path.Msg.Src+1, pi.Path.Msg.Dst+1, pi.Path.RingID,
			srd.Assignment.Lambda[i], pi.Path.Length)
	}

	ms, err := srd.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	mc, err := classical.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncustomisation vs classical sequential ring (ORNoC):")
	fmt.Printf("  longest path:   %.2f mm -> %.2f mm (%.0f%% shorter)\n",
		mc.LongestPathMM, ms.LongestPathMM, 100*(1-ms.LongestPathMM/mc.LongestPathMM))
	fmt.Printf("  splitters/path: %d -> %d\n", mc.MaxSplitters, ms.MaxSplitters)
	fmt.Printf("  il_w_all:       %.2f dB -> %.2f dB\n", mc.WorstILAlldB, ms.WorstILAlldB)
	fmt.Printf("  laser power:    %.4f mW -> %.4f mW (%.0f%% less)\n",
		mc.TotalLaserPowerMW, ms.TotalLaserPowerMW, 100*(1-ms.TotalLaserPowerMW/mc.TotalLaserPowerMW))
	fmt.Println("\nlike the paper's Fig. 2: node 3's single sender needs no splitter,")
	fmt.Println("and the sub-ring carrying nodes 4 and 11 avoids the half-perimeter detour.")
	// Output:
	// MWD application: 12 nodes, 13 messages
	//
	// node placement (mm):
	//   node  1 at (0, 0)
	//   node  2 at (0.15, 0)
	//   node  3 at (0.3, 0)
	//   node  4 at (0.45, 0)
	//   node  5 at (0, 0.15)
	//   node  6 at (0.15, 0.15)
	//   node  7 at (0.3, 0.15)
	//   node  8 at (0.45, 0.15)
	//   node  9 at (0, 0.3)
	//   node 10 at (0.15, 0.3)
	//   node 11 at (0.3, 0.3)
	//   node 12 at (0.45, 0.3)
	//
	// SRing sub-rings (paper Fig. 2(e)):
	//   ring 0 (intra): 0 -> 1 -> 5 -> 4
	//   ring 1 (intra): 8 -> 9
	//   ring 2 (intra): 7 -> 11 -> 6
	//   ring 3 (intra): 3 -> 10 -> 2
	//   ring 4 (inter): 4 -> 9
	//
	// signal paths:
	//   node  3 -> node  4  on ring 3, λ0, 0.150 mm
	//   node 11 -> node  4  on ring 3, λ1, 0.450 mm
	//   node  4 -> node 11  on ring 3, λ1, 0.450 mm
	//   node  1 -> node  2  on ring 0, λ0, 0.150 mm
	//   node  2 -> node  6  on ring 0, λ0, 0.150 mm
	//   node  6 -> node  5  on ring 0, λ0, 0.150 mm
	//   node  5 -> node  1  on ring 0, λ0, 0.150 mm
	//   node  7 -> node  8  on ring 2, λ0, 0.150 mm
	//   node  8 -> node 12  on ring 2, λ0, 0.150 mm
	//   node 12 -> node  7  on ring 2, λ1, 0.300 mm
	//   node  9 -> node 10  on ring 1, λ0, 0.150 mm
	//   node 10 -> node  9  on ring 1, λ0, 0.150 mm
	//   node  5 -> node 10  on ring 4, λ1, 0.300 mm
	//
	// customisation vs classical sequential ring (ORNoC):
	//   longest path:   3.15 mm -> 0.45 mm (86% shorter)
	//   splitters/path: 5 -> 4
	//   il_w_all:       20.73 dB -> 16.50 dB
	//   laser power:    1.3785 mW -> 0.2221 mW (84% less)
	//
	// like the paper's Fig. 2: node 3's single sender needs no splitter,
	// and the sub-ring carrying nodes 4 and 11 avoids the half-perimeter detour.
}

// Packet-level simulation of a synthesised SRing router under increasing
// offered load, the dynamic counterpart of the paper's static power
// analysis. The experiments traffic section runs every method at load 0.5
// only; this sweep shows how latency grows towards saturation.
func Example_trafficLoadSweep() {
	app := sring.VOPD()
	d, err := sring.Synthesize(app, sring.MethodSRing, sring.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SRing on %s, latency vs offered load (10 Gb/s per wavelength, 512-bit packets):\n", app)
	for _, load := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		res, err := sim.Run(d, sim.Config{Seed: 11, Load: load})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  load %.1f: %5d packets, avg %7.2f ns, worst %8.2f ns, %6.1f Gb/s\n",
			load, res.PacketsDelivered, res.AvgLatencyNS, res.WorstLatencyNS, res.ThroughputGbps)
	}
	// Output:
	// SRing on VOPD (#N=16, #M=21), latency vs offered load (10 Gb/s per wavelength, 512-bit packets):
	//   load 0.1:    47 packets, avg   54.68 ns, worst   102.16 ns,   21.8 Gb/s
	//   load 0.3:   136 packets, avg   63.50 ns, worst   140.25 ns,   61.1 Gb/s
	//   load 0.5:   221 packets, avg   71.89 ns, worst   192.83 ns,   94.9 Gb/s
	//   load 0.7:   319 packets, avg  105.02 ns, worst   361.25 ns,  120.0 Gb/s
	//   load 0.9:   402 packets, avg  159.71 ns, worst   538.27 ns,  133.8 Gb/s
}
