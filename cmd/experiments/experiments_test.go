package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"sring"
)

// docMarker introduces a pinned block in EXPERIMENTS.md: the marker line
// names a section, and the fenced block right below it holds that
// section's exact stdout.
const docMarker = "<!-- experiments: "

// TestExperimentsMatchDocs runs every deterministic section in process and
// requires its output to equal, byte for byte, the block EXPERIMENTS.md
// pins for it. Each section also runs without the stage cache, and each
// grid section at -j 1, and must print the same bytes: the cache and the
// grid fan-out are invisible in the results.
func TestExperimentsMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := docBlocks(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	for name := range blocks {
		if s, ok := lookup(name); !ok || !s.deterministic {
			t.Errorf("EXPERIMENTS.md pins %q, which names no deterministic section", name)
		}
	}

	shared := sring.NewCache()
	t.Run("sections", func(t *testing.T) {
		for _, s := range sections {
			if !s.deterministic {
				continue
			}
			t.Run(s.name, func(t *testing.T) {
				want, ok := blocks[s.name]
				if !ok {
					t.Fatalf("EXPERIMENTS.md has no %s%s --> block; paste in the output of go run ./cmd/experiments %s", docMarker, s.name, s.name)
				}
				if s.name == "fig8" && raceEnabled {
					t.Skip("fig8's 100 000 samples are too slow under the race detector")
				}
				t.Parallel()
				got := runSection(t, s, shared, 2)
				if got != want {
					t.Fatalf("%s output differs from EXPERIMENTS.md at %s\ngot:\n%s", s.name, firstDiff(got, want), got)
				}
				if uncached := runSection(t, s, nil, 2); uncached != got {
					t.Errorf("%s without the stage cache differs at %s", s.name, firstDiff(uncached, got))
				}
				if s.grid {
					if seq := runSection(t, s, shared, 1); seq != got {
						t.Errorf("%s at -j 1 differs from -j 2 at %s", s.name, firstDiff(seq, got))
					}
				}
			})
		}
	})
	if hits, _ := shared.Stats(); hits == 0 {
		t.Error("the shared stage cache never hit, so the cached runs tested nothing")
	}
}

// runSection runs s in process on cache (nil: uncached) and jobs workers,
// with the command's default options, and returns its stdout.
func runSection(t *testing.T, s section, cache *sring.Cache, jobs int) string {
	t.Helper()
	var out strings.Builder
	e := &env{ctx: context.Background(), jobs: jobs, cache: cache, samples: paperSamples, log: io.Discard}
	if err := s.run(e, &out); err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return out.String()
}

// docBlocks returns the fenced block below each docMarker line of doc, by
// the section name the marker gives.
func docBlocks(doc string) (map[string]string, error) {
	blocks := make(map[string]string)
	lines := strings.SplitAfter(doc, "\n")
	for i := 0; i < len(lines); i++ {
		rest, ok := strings.CutPrefix(lines[i], docMarker)
		if !ok {
			continue
		}
		name, ok := strings.CutSuffix(strings.TrimRight(rest, "\n"), " -->")
		if !ok {
			return nil, fmt.Errorf("line %d: malformed marker %q", i+1, strings.TrimSpace(lines[i]))
		}
		if _, dup := blocks[name]; dup {
			return nil, fmt.Errorf("line %d: second block for %q", i+1, name)
		}
		if i+1 == len(lines) || lines[i+1] != "```\n" {
			return nil, fmt.Errorf("line %d: marker for %q is not followed by a ``` fence", i+1, name)
		}
		var b strings.Builder
		for i += 2; ; i++ {
			if i == len(lines) {
				return nil, fmt.Errorf("block for %q is not closed", name)
			}
			if lines[i] == "```\n" {
				break
			}
			b.WriteString(lines[i])
		}
		blocks[name] = b.String()
	}
	return blocks, nil
}

// firstDiff locates the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i == len(g) || i == len(w) || g[i] != w[i] {
			line := func(s []string) string {
				if i < len(s) {
					return fmt.Sprintf("%q", s[i])
				}
				return "end of output"
			}
			return fmt.Sprintf("line %d: got %s, want %s", i+1, line(g), line(w))
		}
	}
}
