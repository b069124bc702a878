package main

// splitmix is the splitmix64 generator: the benchmark's only source of
// randomness, so that the same -seed gives the same inputs everywhere
// without math/rand (which the determinism lint confines to seeded
// generators inside the program).
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-50 for the
// small n used here.
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher–Yates), drawing from r.
func shuffle[T any](xs []T, r *splitmix) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
