package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sring/internal/design"
	"sring/internal/layout"
	"sring/internal/loss"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pdn"
	"sring/internal/ring"
	"sring/internal/wavelength"
)

// Stage keys must react to exactly the options each stage depends on:
// upstream keys stay stable under downstream-only changes (that is the
// whole point of the chain), and every relevant knob invalidates its stage
// plus everything after it.
func TestStageKeySensitivity(t *testing.T) {
	app := netlist.MWD()
	tech := loss.Default()
	base := buildStageKeys(app, "SRing", Options{}, tech)

	t.Run("deterministic", func(t *testing.T) {
		again := buildStageKeys(app, "SRing", Options{}, tech)
		if base != again {
			t.Error("same inputs produced different stage keys")
		}
	})

	t.Run("parallelism and recorder never enter keys", func(t *testing.T) {
		k := buildStageKeys(app, "SRing", Options{Parallelism: 7}, tech)
		if base != k {
			t.Error("Parallelism changed a stage key")
		}
	})

	t.Run("method invalidates from construct", func(t *testing.T) {
		k := buildStageKeys(app, "XRing", Options{}, tech)
		if base.construct == k.construct || base.pdn == k.pdn {
			t.Error("method change did not invalidate the chain")
		}
	})

	t.Run("tree height invalidates from construct", func(t *testing.T) {
		k := buildStageKeys(app, "SRing", Options{TreeHeight: 4}, tech)
		if base.construct == k.construct {
			t.Error("TreeHeight did not change the construct key")
		}
	})

	t.Run("tech invalidates loss but not construct or layout", func(t *testing.T) {
		tech2 := tech
		tech2.SplitRatioDB = 3.5
		k := buildStageKeys(app, "SRing", Options{}, tech2)
		if base.construct != k.construct || base.layout != k.layout {
			t.Error("tech change invalidated tech-independent upstream stages")
		}
		if base.loss == k.loss || base.assign == k.assign || base.pdn == k.pdn {
			t.Error("tech change did not invalidate loss and downstream")
		}
	})

	t.Run("milp options invalidate assign but not loss", func(t *testing.T) {
		k := buildStageKeys(app, "SRing", Options{UseMILP: true, MILPTimeLimit: time.Second}, tech)
		if base.loss != k.loss {
			t.Error("MILP options invalidated the loss stage")
		}
		if base.assign == k.assign || base.pdn == k.pdn {
			t.Error("MILP options did not invalidate the assignment")
		}
	})

	t.Run("physical pdn invalidates only pdn", func(t *testing.T) {
		k := buildStageKeys(app, "SRing", Options{PhysicalPDN: true}, tech)
		if base.assign != k.assign {
			t.Error("PhysicalPDN invalidated the assignment stage")
		}
		if base.pdn == k.pdn {
			t.Error("PhysicalPDN did not invalidate the PDN stage")
		}
	})

	t.Run("application content invalidates everything", func(t *testing.T) {
		app2 := netlist.MWD()
		app2.Messages[0].Bandwidth++
		k := buildStageKeys(app2, "SRing", Options{}, tech)
		if base.construct == k.construct {
			t.Error("message bandwidth change did not invalidate the construct key")
		}
	})
}

// First writer wins: a duplicate store keeps the original value, so racing
// synthesis calls always read one consistent result.
func TestCacheFirstWriterWins(t *testing.T) {
	c := NewCache()
	var key cacheKey
	c.store("construct", key, "first")
	c.store("construct", key, "second")
	v, ok := c.lookup(nil, "construct", key)
	if !ok || v != "first" {
		t.Errorf("lookup = %v %v, want the first stored value", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 0 {
		t.Errorf("Stats = %d/%d, want 1 hit, 0 misses", hits, misses)
	}
}

// A nil *Cache is a valid "caching off" value: lookups miss without
// counting, stores vanish.
func TestNilCache(t *testing.T) {
	var c *Cache
	var key cacheKey
	if _, ok := c.lookup(nil, "construct", key); ok {
		t.Error("nil cache reported a hit")
	}
	c.store("construct", key, "x")
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("nil cache stats = %d/%d, want 0/0", h, m)
	}
	if c.Len() != 0 {
		t.Errorf("nil cache Len = %d, want 0", c.Len())
	}
}

// Unknown methods fail with an error naming the registered alternatives.
func TestUnknownMethod(t *testing.T) {
	_, err := Synthesize(context.Background(), netlist.MWD(), "NoSuchMethod", Options{})
	if err == nil || !strings.Contains(err.Error(), "NoSuchMethod") {
		t.Errorf("err = %v, want unknown-method error naming the method", err)
	}
}

// Regression (unbounded growth): a byte-budgeted cache must hold Len() and
// byte usage under the cap across a sweep far larger than the budget,
// evicting LRU entries instead of leaking. The synthetic sweep stores many
// distinct loss-stage-sized entries across the whole key space.
func TestCacheBounded(t *testing.T) {
	const budget = 64 << 10
	c, err := NewCacheWithConfig(CacheConfig{MaxBytes: budget, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	value := make([]wavelength.PathInfo, 8) // entrySize ≈ 48 + 8·96 bytes
	perEntry := entrySize(value)
	for i := 0; i < 4096; i++ {
		var key cacheKey
		key[0] = byte(i)
		key[1] = byte(i >> 8)
		key[2] = byte(i >> 16)
		c.store("loss", key, value)
	}
	st := c.StatsSnapshot()
	if st.Bytes > budget {
		t.Errorf("Bytes = %d, want <= budget %d", st.Bytes, budget)
	}
	if max := budget / perEntry; int64(c.Len()) > max {
		t.Errorf("Len = %d, want <= %d (budget/entry)", c.Len(), max)
	}
	if st.Evictions == 0 {
		t.Error("no evictions across a sweep 50x the byte budget")
	}
	// The accounted bytes must agree with the shards' actual content.
	var shardBytes int64
	for i := range c.shards {
		for _, e := range c.shards[i].m {
			shardBytes += e.size
		}
	}
	if shardBytes != st.Bytes {
		t.Errorf("accounted bytes %d != resident bytes %d", st.Bytes, shardBytes)
	}
}

// The bound must also hold for real synthesis sweeps, with designs still
// coming back correct after evictions.
func TestCacheBoundedSynthesis(t *testing.T) {
	const budget = 32 << 10
	c, err := NewCacheWithConfig(CacheConfig{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	app := netlist.MWD()
	for i := 0; i < 12; i++ {
		tech := loss.Default()
		tech.SplitRatioDB = 3.0 + 0.05*float64(i)
		if _, err := Synthesize(context.Background(), app, "CoalesceProbe", Options{Tech: tech, Cache: c, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Bytes(); got > budget+budget/defaultCacheShards {
		t.Errorf("Bytes = %d, want within one per-shard overshoot of %d", got, budget)
	}
	if c.StatsSnapshot().Evictions == 0 {
		t.Error("sweep past the budget evicted nothing")
	}
}

// coalesceCtorCalls counts executions of the CoalesceProbe constructor;
// coalesceCtorGate, when non-nil, blocks the first execution until closed
// so a test can guarantee a second request races it.
var (
	coalesceCtorCalls atomic.Int64
	coalesceCtorGate  chan struct{}
)

func init() {
	Register("CoalesceProbe", func(ctx context.Context, app *netlist.Application, opt Options, parent *obs.Span) (*Construction, error) {
		if coalesceCtorCalls.Add(1) == 1 && coalesceCtorGate != nil {
			<-coalesceCtorGate
		}
		var order []netlist.NodeID
		for _, n := range app.Nodes {
			order = append(order, n.ID)
		}
		r := &ring.Ring{ID: 0, Kind: ring.Base, Order: order}
		var paths []ring.Path
		for _, m := range app.Messages {
			p, err := ring.Route(app, r, m)
			if err != nil {
				return nil, err
			}
			paths = append(paths, p)
		}
		return &Construction{Rings: []*ring.Ring{r}, Paths: paths, Weights: wavelength.DefaultWeights()}, nil
	})
}

// Regression (duplicate concurrent stage execution): two racing identical
// Synthesize calls on a cold cache must run the construct stage exactly
// once — the second request coalesces onto the first's in-flight execution
// instead of duplicating it, observable in pipeline.cache.coalesced.
func TestSingleflightCoalesces(t *testing.T) {
	c := NewCache()
	before := obs.Default().Snapshot()
	app := netlist.MWD()
	opt := Options{Cache: c, Parallelism: 1}

	coalesceCtorCalls.Store(0)
	coalesceCtorGate = make(chan struct{})
	defer func() { coalesceCtorGate = nil }()

	errs := make(chan error, 2)
	run := func() {
		_, err := Synthesize(context.Background(), app, "CoalesceProbe", opt)
		errs <- err
	}
	go run()
	// Wait until the first request is inside the constructor (holding the
	// construct singleflight slot), then race the second against it.
	for coalesceCtorCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go run()
	// Give the second request time to reach the in-flight wait, then let
	// the leader finish.
	time.Sleep(10 * time.Millisecond)
	close(coalesceCtorGate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if got := coalesceCtorCalls.Load(); got != 1 {
		t.Errorf("construct stage executed %d times, want exactly 1", got)
	}
	if got := c.StatsSnapshot().Coalesced; got < 1 {
		t.Errorf("cache coalesced = %d, want >= 1", got)
	}
	if got := obs.Default().Snapshot().Sub(before).Counters["pipeline.cache.coalesced"]; got < 1 {
		t.Errorf("pipeline.cache.coalesced = %d, want >= 1", got)
	}
}

// Regression (unvalidated cache hits): a corrupted non-construct entry —
// wrong type, wrong shape — must be dropped and recomputed, not handed to
// downstream stages. The design must come out identical to an uncached run.
func TestCacheHitValidation(t *testing.T) {
	app := netlist.MWD()
	tech, err := loss.Normalize(loss.Tech{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Synthesize(context.Background(), app, "CoalesceProbe", Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	poisons := map[string]interface{}{
		"layout": "not a layout",
		"loss":   make([]wavelength.PathInfo, 3), // wrong length, zero msgs
		"assign": &assignValue{},                 // nil assignment
		"pdn":    &pdn.Network{},                 // no feed lengths
	}
	keys := buildStageKeys(app, "CoalesceProbe", Options{}, tech)
	keyOf := map[string]cacheKey{
		"layout": keys.layout, "loss": keys.loss, "assign": keys.assign, "pdn": keys.pdn,
	}
	for stage, poison := range poisons {
		c := NewCache()
		c.store(stage, keyOf[stage], poison)
		got, err := Synthesize(context.Background(), app, "CoalesceProbe", Options{Cache: c, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s poisoned: %v", stage, err)
		}
		if c.StatsSnapshot().Invalid != 1 {
			t.Errorf("%s poisoned: invalid = %d, want 1", stage, c.StatsSnapshot().Invalid)
		}
		if !designsEqual(t, want, got) {
			t.Errorf("%s poisoned: recomputed design differs from uncached run", stage)
		}
	}
}

// The sharing contract: cached values are immutable; what callers may
// mutate (assignments, whose Normalize renumbers in place) is cloned on
// the way in and out. Hash every cached value, hammer the cache with
// concurrent reuse while mutating the returned designs, and hash again.
func TestCachedValueImmutability(t *testing.T) {
	c := NewCache()
	app := netlist.MWD()
	opt := Options{Cache: c, Parallelism: 1}
	want, err := Synthesize(context.Background(), app, "CoalesceProbe", opt)
	if err != nil {
		t.Fatal(err)
	}
	before := hashCacheEntries(t, c)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := Synthesize(context.Background(), app, "CoalesceProbe", opt)
			if err != nil {
				t.Error(err)
				return
			}
			// A caller-side mutation that must not reach the cache.
			d.Assignment.Normalize()
		}()
	}
	wg.Wait()

	after := hashCacheEntries(t, c)
	if len(before) != len(after) {
		t.Fatalf("entry count changed %d -> %d under pure reuse", len(before), len(after))
	}
	for k, h := range before {
		if after[k] != h {
			t.Errorf("cached entry mutated by concurrent reuse (key %x...)", k[:4])
		}
	}
	got, err := Synthesize(context.Background(), app, "CoalesceProbe", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !designsEqual(t, want, got) {
		t.Error("design served after concurrent reuse differs from the first")
	}
}

// Regression (nil-cache lookups under-count telemetry): with caching off,
// stages must count into pipeline.cache.disabled — not misses — so
// hits/(hits+misses) stays meaningful over mixed cached/uncached runs.
func TestNilCacheDisabledCounter(t *testing.T) {
	before := obs.Default().Snapshot()
	if _, err := Synthesize(context.Background(), netlist.MWD(), "CoalesceProbe", Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	d := obs.Default().Snapshot().Sub(before).Counters
	if got := d["pipeline.cache.disabled"]; got != 5 {
		t.Errorf("pipeline.cache.disabled = %d, want 5 (one per stage)", got)
	}
	if got := d["pipeline.cache.misses"]; got != 0 {
		t.Errorf("pipeline.cache.misses = %d, want 0 for an uncached run", got)
	}
	if got := d["pipeline.cache.hits"]; got != 0 {
		t.Errorf("pipeline.cache.hits = %d, want 0 for an uncached run", got)
	}
}

// hashCacheEntries fingerprints every cached value and returns a per-key
// SHA-256 — a content fingerprint of the whole cache. Map-bearing values
// are serialised with sorted keys (gob's map encoding is order-random, so
// it cannot be hashed directly).
func hashCacheEntries(t *testing.T, c *Cache) map[cacheKey][sha256.Size]byte {
	t.Helper()
	out := make(map[cacheKey][sha256.Size]byte)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			out[k] = sha256.Sum256(fingerprint(t, e.v))
		}
		sh.mu.Unlock()
	}
	return out
}

// fingerprint canonically serialises one cached value.
func fingerprint(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	switch x := v.(type) {
	case *layoutValue:
		res := x.Res
		keys := make([]layout.SegKey, 0, len(res.Routes))
		for k := range res.Routes {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].RingID != keys[j].RingID {
				return keys[i].RingID < keys[j].RingID
			}
			return keys[i].Seg < keys[j].Seg
		})
		for _, k := range keys {
			fmt.Fprintf(&buf, "%v=%v b%d c%d;", k, res.Routes[k], res.SegBends[k], res.SegCrossings[k])
		}
		fmt.Fprintf(&buf, "x%d b%d mm%v rings%v", res.TotalCrossings, res.TotalBends, res.TotalWaveguideMM, res.Rings())
	case *pdn.Network:
		fmt.Fprintf(&buf, "t%d e%d s%d;", x.TreeStages, x.ExtraStages, x.TotalSplitters)
		var ids []int
		for id := range x.FeedLengthMM {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&buf, "%d=%v/%v;", id, x.FeedLengthMM[netlist.NodeID(id)], x.NodeSplitter[netlist.NodeID(id)])
		}
	default:
		// Slice-backed values (constructions, priced paths, assignments)
		// gob-encode deterministically.
		if err := gob.NewEncoder(&buf).Encode(&diskEntry{Version: persistVersion, Stage: "", Value: v}); err != nil {
			t.Fatalf("encode cached %T entry: %v", v, err)
		}
	}
	return buf.Bytes()
}

// designsEqual compares two designs by their canonical JSON encodings.
func designsEqual(t *testing.T, a, b *design.Design) bool {
	t.Helper()
	var ab, bb bytes.Buffer
	if err := design.EncodeJSON(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := design.EncodeJSON(&bb, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}
