package pipeline

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sring/internal/netlist"
)

// FuzzCacheEntry corrupts one persisted cache entry and reloads the cache
// over it. MWD's stage entries are persisted once; each input picks one
// .entry file, keeps its first keep bytes, splices data in after them and,
// unless truncate is set, keeps the rest of the original after the splice.
// An empty data with truncate set is a plain truncation. The cache is then
// rebuilt over the directory with NewCacheWithConfig and MWD synthesised
// again. Properties: nothing panics, and the design is byte-identical to
// an uncached synthesis.
//
// The seed corpus runs as part of go test; explore further with
//
//	go test -run - -fuzz FuzzCacheEntry -parallel 1 ./internal/pipeline/
func FuzzCacheEntry(f *testing.F) {
	f.Add(uint8(0), uint16(0), true, []byte{})
	f.Add(uint8(1), uint16(40), true, []byte{})
	f.Add(uint8(2), uint16(300), false, []byte{0xff})
	f.Add(uint8(3), uint16(500), false, []byte("\x00\x00\x00\x00"))
	f.Add(uint8(4), uint16(9), false, []byte("sringcache/0"))

	app := netlist.MWD()
	opt := Options{Parallelism: 1}
	want, err := Synthesize(context.Background(), app, "CoalesceProbe", opt)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	c, err := NewCacheWithConfig(CacheConfig{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	opt.Cache = c
	if _, err := Synthesize(context.Background(), app, "CoalesceProbe", opt); err != nil {
		f.Fatal(err)
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil || len(names) == 0 {
		f.Fatalf("no persisted entries (%v)", err)
	}
	sort.Strings(names)
	files := make([][]byte, len(names))
	for i, n := range names {
		if files[i], err = os.ReadFile(n); err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, pick uint8, keep uint16, truncate bool, data []byte) {
		dir := t.TempDir()
		target := int(pick) % len(files)
		for i, b := range files {
			if i == target {
				cut := int(keep) % (len(b) + 1)
				mutated := append(append([]byte{}, b[:cut]...), data...)
				if rest := cut + len(data); !truncate && rest < len(b) {
					mutated = append(mutated, b[rest:]...)
				}
				b = mutated
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(names[i])), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := NewCacheWithConfig(CacheConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, err := Synthesize(context.Background(), app, "CoalesceProbe", Options{Cache: c, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !designsEqual(t, want, got) {
			t.Fatal("design synthesised over the corrupted cache entry differs from the uncached one")
		}
	})
}
