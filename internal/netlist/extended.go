package netlist

// Extended benchmark suite: four additional application task graphs in the
// style of the common NoC synthesis literature (picture-in-picture, H.263
// codec, MP3 decoder, and a combined multimedia system). The SRing paper
// evaluates only the seven Table-I benchmarks; these extend the evaluation
// surface for downstream users and for `experiments -extended`.

// PIP returns an 8-node, 8-message picture-in-picture application: two
// scaler pipelines sharing a memory.
func PIP() *Application {
	names := []string{
		"inp_mem", "hs", "vs", "jug",
		"mem", "hvs", "jug2", "op_disp",
	}
	return &Application{
		Name:  "PIP",
		Nodes: grid(8, 4, 0.15, names),
		Messages: msgs([][3]float64{
			{0, 1, 128}, // inp_mem -> hs
			{1, 2, 64},  // hs -> vs
			{2, 4, 64},  // vs -> mem
			{0, 3, 64},  // inp_mem -> jug
			{3, 4, 64},  // jug -> mem
			{4, 5, 96},  // mem -> hvs
			{5, 7, 96},  // hvs -> op_disp
			{4, 6, 64},  // mem -> jug2
		}),
	}
}

// H263 returns a 14-node, 18-message H.263 encoder/decoder pair sharing a
// frame memory.
func H263() *Application {
	names := []string{
		"cam", "me", "mc_enc", "dct", "quant", "vlc", "fmem",
		"vld", "iquant", "idct", "mc_dec", "disp", "rate_ctl", "strm",
	}
	return &Application{
		Name:  "H263",
		Nodes: grid(14, 4, 0.15, names),
		Messages: msgs([][3]float64{
			// Encoder pipeline.
			{0, 1, 400}, {1, 2, 300}, {2, 3, 300}, {3, 4, 250},
			{4, 5, 100}, {5, 13, 64},
			// Frame memory traffic.
			{1, 6, 200}, {6, 1, 200}, {2, 6, 150},
			// Rate control loop.
			{4, 12, 16}, {12, 4, 16},
			// Decoder pipeline.
			{13, 7, 64}, {7, 8, 100}, {8, 9, 250}, {9, 10, 300},
			{10, 11, 400}, {6, 10, 200}, {10, 6, 150},
		}),
	}
}

// MP3 returns a 13-node, 14-message MP3 decoder pipeline with a shared
// sample memory.
func MP3() *Application {
	names := []string{
		"strm", "sync", "huff", "dequant", "reorder", "stereo",
		"alias", "imdct", "freqinv", "synth", "pcm", "smem", "ctl",
	}
	return &Application{
		Name:  "MP3",
		Nodes: grid(13, 4, 0.15, names),
		Messages: msgs([][3]float64{
			{0, 1, 32}, {1, 2, 32}, {2, 3, 48}, {3, 4, 48},
			{4, 5, 48}, {5, 6, 48}, {6, 7, 64}, {7, 8, 64},
			{8, 9, 64}, {9, 10, 96},
			// Sample memory and control.
			{7, 11, 64}, {11, 7, 64}, {12, 1, 4}, {12, 9, 4},
		}),
	}
}

// MMS returns a 25-node, 33-message combined multimedia system: video
// encode/decode, audio, and a processor/memory backbone.
func MMS() *Application {
	names := []string{
		"cpu", "dsp1", "dsp2", "dsp3", "dsp4",
		"mem1", "mem2", "mem3", "aswitch", "vswitch",
		"vin", "venc", "vdec", "vout", "ain",
		"aenc", "adec", "aout", "dma", "bridge",
		"per1", "per2", "rast", "idct2", "up2",
	}
	return &Application{
		Name:  "MMS",
		Nodes: grid(25, 5, 0.18, names),
		Messages: msgs([][3]float64{
			// Video encode path.
			{10, 9, 600}, {9, 11, 600}, {11, 5, 400}, {5, 11, 200},
			// Video decode path.
			{5, 12, 400}, {12, 9, 600}, {9, 13, 600}, {12, 23, 300},
			{23, 24, 300}, {24, 13, 300}, {22, 12, 150},
			// Audio paths.
			{14, 8, 48}, {8, 15, 48}, {15, 6, 32}, {6, 16, 32},
			{16, 8, 48}, {8, 17, 48},
			// Processor / memory backbone.
			{0, 5, 800}, {5, 0, 800}, {0, 6, 640}, {6, 0, 640},
			{1, 6, 320}, {6, 1, 320}, {2, 7, 320}, {7, 2, 320},
			{3, 7, 160}, {4, 7, 160},
			// DMA and peripherals.
			{18, 5, 240}, {18, 7, 240}, {0, 19, 64},
			{19, 20, 32}, {19, 21, 32}, {0, 18, 64},
		}),
	}
}

// Extended returns the extension benchmarks (not part of the paper's
// Table I).
func Extended() []*Application {
	return []*Application{PIP(), H263(), MP3(), MMS()}
}
