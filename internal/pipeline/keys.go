package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"

	"sring/internal/loss"
	"sring/internal/netlist"
)

type cacheKey [sha256.Size]byte

// stageKeys holds one content-addressed key per stage. Keys chain: each
// stage's key incorporates its upstream stage's key, so a change anywhere
// upstream invalidates everything after it while downstream-only option
// changes (e.g. Tech in a sensitivity sweep) leave the upstream keys — and
// their cached outputs — intact.
type stageKeys struct {
	construct cacheKey
	layout    cacheKey
	loss      cacheKey
	assign    cacheKey
	pdn       cacheKey
}

// buildStageKeys derives the stage keys for one synthesis run. The leading
// version tags let a future change to any stage's semantics invalidate old
// entries wholesale — including entries loaded back from a persistence
// directory written by an older binary, whose keys simply never match.
func buildStageKeys(app *netlist.Application, method string, opt Options, tech loss.Tech) stageKeys {
	var ks stageKeys

	// construct/2: the multi-level hierarchical constructor changed the
	// SRing construction semantics (and Construction gained Levels).
	h := newKeyHasher("construct/2")
	h.application(app)
	h.str(method)
	h.i64(int64(opt.TreeHeight))
	h.i64(int64(opt.ClusterTrials))
	h.i64(int64(opt.MaxChords))
	ks.construct = h.sum()

	h = newKeyHasher("layout/1")
	h.key(ks.construct)
	ks.layout = h.sum()

	h = newKeyHasher("loss/1")
	h.key(ks.layout)
	h.tech(tech)
	ks.loss = h.sum()

	// The assignment depends on the effective weights too, but those are a
	// pure function of (construction, tech) — both already in the chain.
	// assign/6: the cut budget is no longer an option and no longer hashed,
	// so persisted assign/5 entries, whose keys include it, never match.
	h = newKeyHasher("assign/6")
	h.key(ks.loss)
	h.bool(opt.UseMILP)
	h.i64(int64(opt.MILPTimeLimit))
	h.str(opt.Oracle)
	ks.assign = h.sum()

	h = newKeyHasher("pdn/1")
	h.key(ks.assign)
	h.bool(opt.PhysicalPDN)
	ks.pdn = h.sum()

	return ks
}

// keyHasher serialises values into a SHA-256 with unambiguous (length
// prefixed, fixed width) encodings.
type keyHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newKeyHasher(tag string) *keyHasher {
	kh := &keyHasher{h: sha256.New()}
	kh.str(tag)
	return kh
}

func (kh *keyHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(kh.buf[:], v)
	kh.h.Write(kh.buf[:])
}

func (kh *keyHasher) i64(v int64)   { kh.u64(uint64(v)) }
func (kh *keyHasher) f64(v float64) { kh.u64(math.Float64bits(v)) }

func (kh *keyHasher) bool(v bool) {
	if v {
		kh.u64(1)
	} else {
		kh.u64(0)
	}
}

func (kh *keyHasher) str(s string) {
	kh.u64(uint64(len(s)))
	io.WriteString(kh.h, s)
}

func (kh *keyHasher) key(k cacheKey) { kh.h.Write(k[:]) }

func (kh *keyHasher) sum() cacheKey {
	var k cacheKey
	kh.h.Sum(k[:0])
	return k
}

// application hashes the full synthesis-relevant content of an application:
// every node's identity and position, every message's endpoints and
// bandwidth.
func (kh *keyHasher) application(app *netlist.Application) {
	kh.str(app.Name)
	kh.u64(uint64(len(app.Nodes)))
	for _, n := range app.Nodes {
		kh.i64(int64(n.ID))
		kh.f64(n.Pos.X)
		kh.f64(n.Pos.Y)
	}
	kh.u64(uint64(len(app.Messages)))
	for _, m := range app.Messages {
		kh.i64(int64(m.Src))
		kh.i64(int64(m.Dst))
		kh.f64(m.Bandwidth)
	}
}

// tech hashes every technology parameter, field by field.
func (kh *keyHasher) tech(t loss.Tech) {
	kh.f64(t.PropagationDBPerMM)
	kh.f64(t.DropDB)
	kh.f64(t.ThroughDB)
	kh.f64(t.BendDB)
	kh.f64(t.CrossingDB)
	kh.f64(t.ModulatorDB)
	kh.f64(t.PhotodetectorDB)
	kh.f64(t.SplitterExcessDB)
	kh.f64(t.SplitRatioDB)
	kh.f64(t.DetectorSensitivityDBm)
}
