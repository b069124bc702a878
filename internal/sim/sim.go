// Package sim is a discrete-event transmission simulator for synthesised
// WRONoC designs. It injects packet traffic on every reserved signal path,
// models wavelength-division transmission at the physical parameters the
// paper's introduction cites (10.45 ps/mm waveguide propagation), and
// dynamically verifies the static collision-freedom guarantee: no two
// packets may ever occupy the same (waveguide segment, wavelength) at the
// same time.
//
// Because WRONoCs reserve all paths at design time, a correct design always
// simulates with zero collisions; the simulator exists to demonstrate that
// end-to-end (and to catch corrupted designs in failure-injection tests),
// and to turn the static power numbers into dynamic figures of merit:
// per-message latency, aggregate throughput, and laser energy per delivered
// bit.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sring/internal/design"
)

// The physical parameters of every run.
const (
	// bitrateGbps is the modulation rate per wavelength.
	bitrateGbps float64 = 10
	// packetBits is the packet size.
	packetBits = 512
	// propagationPSPerMM is the waveguide group delay (paper Sec. I).
	propagationPSPerMM float64 = 10.45
	// eoConversionPS and oeConversionPS are the fixed sender/receiver
	// conversion latencies.
	eoConversionPS float64 = 100
	oeConversionPS float64 = 100
	// durationNS is the simulated injection window (1 µs).
	durationNS float64 = 1000
)

// Config parameterises a simulation run.
type Config struct {
	// Load is the offered load per message as a fraction of a wavelength's
	// capacity, in (0, 1]. Zero means 0.5.
	Load float64
	// Seed drives the Poisson arrival processes.
	Seed int64
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	// The negated test also rejects NaN, which would never end the
	// arrival loop.
	if !(c.Load >= 0 && c.Load <= 1) {
		return fmt.Errorf("sim: load %v outside (0, 1]", c.Load)
	}
	return nil
}

// MessageStats aggregates one message's traffic.
type MessageStats struct {
	Packets        int
	AvgLatencyNS   float64
	WorstLatencyNS float64
	// PropagationNS is the fixed flight component (no queueing).
	PropagationNS float64
}

// Result is the outcome of a run.
type Result struct {
	PacketsDelivered int
	BitsDelivered    int64
	// Collisions counts (segment, wavelength) occupancy overlaps between
	// different messages; zero for every valid design.
	Collisions int
	// AvgLatencyNS / WorstLatencyNS are over all delivered packets
	// (injection to last bit detected).
	AvgLatencyNS   float64
	WorstLatencyNS float64
	// ThroughputGbps is delivered bits over the simulated horizon.
	ThroughputGbps float64
	// LaserEnergyPJPerBit divides the design's static laser power over the
	// delivered bits: the dynamic counterpart of the paper's Fig. 7.
	LaserEnergyPJPerBit float64
	PerMessage          []MessageStats
	// WavelengthUtilization maps each wavelength to the fraction of the
	// simulated horizon its busiest segment was occupied — how hard the
	// WDM channels actually work.
	WavelengthUtilization []float64
}

// interval is one packet's occupancy of its arc.
type interval struct {
	msg        int
	start, end float64 // ns
}

// Run simulates the design under the configuration.
func Run(d *design.Design, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Load == 0 {
		cfg.Load = 0.5
	}
	met, err := d.Metrics()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	serNS := float64(packetBits) / bitrateGbps // bits / (Gbit/s) = ns

	res := &Result{PerMessage: make([]MessageStats, len(d.Infos))}
	// occupancy[(ring, seg, λ)] collects per-packet intervals for the
	// collision check.
	occupancy := make(map[[3]int][]interval)

	var totalLatency float64
	for mi, pi := range d.Infos {
		propNS := pi.Path.Length*propagationPSPerMM/1000 +
			(eoConversionPS+oeConversionPS)/1000
		st := &res.PerMessage[mi]
		st.PropagationNS = propNS

		// Poisson arrivals at the requested load; packets queue at the
		// sender (one modulator per message wavelength).
		meanGapNS := serNS / cfg.Load
		t := 0.0
		lastFree := 0.0
		for {
			t += rng.ExpFloat64() * meanGapNS
			if t > durationNS {
				break
			}
			start := math.Max(t, lastFree)
			end := start + serNS
			lastFree = end
			delivered := end + propNS
			latency := delivered - t

			st.Packets++
			st.AvgLatencyNS += latency
			if latency > st.WorstLatencyNS {
				st.WorstLatencyNS = latency
			}
			res.PacketsDelivered++
			res.BitsDelivered += int64(packetBits)
			totalLatency += latency
			if latency > res.WorstLatencyNS {
				res.WorstLatencyNS = latency
			}

			lambda := d.Assignment.Lambda[mi]
			for _, seg := range pi.Path.Segs {
				key := [3]int{pi.Path.RingID, seg, lambda}
				occupancy[key] = append(occupancy[key], interval{msg: mi, start: start, end: end + propNS})
			}
		}
		if st.Packets > 0 {
			st.AvgLatencyNS /= float64(st.Packets)
		}
	}

	// Collision sweep: per (segment, wavelength), sort intervals and count
	// overlaps between different messages. Busy time per key feeds the
	// utilization stats.
	busiest := make(map[int]float64) // wavelength -> max busy ns over its segments
	for key, ivs := range occupancy {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		var busy float64
		for i, iv := range ivs {
			busy += iv.end - iv.start
			if i > 0 && iv.msg != ivs[i-1].msg && iv.start < ivs[i-1].end {
				res.Collisions++
			}
		}
		if busy > busiest[key[2]] {
			busiest[key[2]] = busy
		}
	}

	if res.PacketsDelivered > 0 {
		res.AvgLatencyNS = totalLatency / float64(res.PacketsDelivered)
	}
	horizonNS := durationNS + res.WorstLatencyNS
	res.WavelengthUtilization = make([]float64, d.Assignment.NumLambda)
	for l := range res.WavelengthUtilization {
		res.WavelengthUtilization[l] = math.Min(1, busiest[l]/horizonNS)
	}
	res.ThroughputGbps = float64(res.BitsDelivered) / horizonNS
	if res.BitsDelivered > 0 {
		// mW * ns / bit = pJ / bit.
		res.LaserEnergyPJPerBit = met.TotalLaserPowerMW * horizonNS / float64(res.BitsDelivered)
	}
	return res, nil
}
