package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile written to path and returns the stop
// function, which flushes the profile and closes the file. The stop
// function's error must be checked: a short write to a full disk surfaces
// only at Close, as a silently truncated profile otherwise. Commands wire
// this behind a -cpuprofile flag.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("obs: cpu profile: %w", err)
		}
		return nil
	}, nil
}

// WriteHeapProfile writes a heap profile to path after a GC, so the profile
// reflects live memory rather than garbage. Commands wire this behind a
// -memprofile flag. Close's error is reported too: that is where a
// full-disk short write shows up.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("obs: heap profile: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("obs: heap profile: %w", cerr)
	}
	return nil
}
