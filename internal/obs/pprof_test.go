package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCPUProfileStopReportsClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("profile empty or missing: %v", err)
	}
	// A second profile into an unwritable path fails at start, not at stop.
	if _, err := StartCPUProfile(filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
		t.Error("StartCPUProfile into a missing directory succeeded")
	}
}

func TestWriteHeapProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.prof")
	if err := WriteHeapProfile(path); err != nil {
		t.Fatalf("heap: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile empty or missing: %v", err)
	}
}
