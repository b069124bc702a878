package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"sring/internal/pdn"
	"sring/internal/wavelength"
)

// Disk persistence for the stage cache: entries are saved write-behind —
// store enqueues, a single background goroutine serialises to
// <dir>/<hex key>.entry via temp-file + rename — and loaded back when a
// cache is constructed over the same directory, so warm state survives
// process restarts (cmd/serve's main use).
//
// Correctness leans on content addressing, not on the files: a key already
// encodes the stage's versioned semantics ("construct/1", …), the full
// application content and the option prefix, so a stale or foreign file
// can at worst waste disk — its key never matches a live request. Each
// file starts with the SHA-256 of its key and gob body, so a file whose
// bytes changed after the write (truncated, corrupted, renamed) is skipped
// on load, as is one that fails to decode (older gob schema, wrong version
// tag): a gob body that decodes is not necessarily the value written.
// Evicted entries stay on disk: disk is the larger tier, and reloading
// routes through store, which re-applies the byte budget.

// persistVersion guards the file envelope. Bump when diskEntry or any
// persisted value type changes shape incompatibly.
const persistVersion = "sringcache/2"

// diskEntry is the gob envelope of one persisted cache entry.
type diskEntry struct {
	Version string
	Stage   string
	Value   interface{}
}

func init() {
	// The concrete types the cache stores, registered for gob's interface
	// encoding. layout.Result rides inside layoutValue via its own
	// GobEncode (its ring index lives in an unexported field).
	gob.Register(&Construction{})
	gob.Register(&layoutValue{})
	gob.Register([]wavelength.PathInfo{})
	gob.Register(&assignValue{})
	gob.Register(&pdn.Network{})
}

// persistQueueDepth bounds the write-behind queue. A full queue drops the
// write (counted) rather than stalling synthesis: persistence is an
// optimisation, never a dependency.
const persistQueueDepth = 256

type persistItem struct {
	stage string
	key   cacheKey
	v     interface{}
}

type persister struct {
	dir     string
	ch      chan persistItem
	done    chan struct{}
	dropped atomic.Int64
	saved   atomic.Int64
}

func newPersister(dir string) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: cache dir: %w", err)
	}
	p := &persister{
		dir:  dir,
		ch:   make(chan persistItem, persistQueueDepth),
		done: make(chan struct{}),
	}
	go p.run()
	return p, nil
}

func (p *persister) run() {
	defer close(p.done)
	for item := range p.ch {
		if err := p.write(item); err == nil {
			p.saved.Add(1)
		}
	}
}

func (p *persister) enqueue(stage string, key cacheKey, v interface{}) {
	select {
	case p.ch <- persistItem{stage: stage, key: key, v: v}:
	default:
		p.dropped.Add(1)
	}
}

func (p *persister) close() error {
	close(p.ch)
	<-p.done
	return nil
}

func (p *persister) path(key cacheKey) string {
	return filepath.Join(p.dir, hex.EncodeToString(key[:])+".entry")
}

// entrySum checksums an entry file's gob body together with its key.
func entrySum(key cacheKey, body []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(key[:])
	h.Write(body)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// write serialises one entry atomically: checksum and gob body to a temp
// file, then rename.
func (p *persister) write(item persistItem) error {
	final := p.path(item.key)
	if _, err := os.Stat(final); err == nil {
		return nil // content-addressed: an existing file is already right
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(diskEntry{Version: persistVersion, Stage: item.stage, Value: item.v}); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(p.dir, ".entry-*")
	if err != nil {
		return err
	}
	sum := entrySum(item.key, body.Bytes())
	if _, err := tmp.Write(append(sum[:], body.Bytes()...)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), final)
}

// loadInto reads every intact, decodable entry file in the directory into
// the cache (via store, so the byte budget applies). Other files are
// skipped; unreadable directories error.
func (p *persister) loadInto(c *Cache) error {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("pipeline: cache dir: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".entry") {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ".entry"))
		if err != nil || len(raw) != len(cacheKey{}) {
			continue
		}
		var key cacheKey
		copy(key[:], raw)
		data, err := os.ReadFile(filepath.Join(p.dir, name))
		if err != nil || len(data) < sha256.Size {
			continue
		}
		body := data[sha256.Size:]
		if sum := entrySum(key, body); !bytes.Equal(sum[:], data[:sha256.Size]) {
			continue
		}
		var d diskEntry
		err = gob.NewDecoder(bytes.NewReader(body)).Decode(&d)
		if err != nil || d.Version != persistVersion || d.Value == nil {
			continue
		}
		// Bypass enqueue: the entry came from this very directory.
		sh := c.shardFor(key)
		size := entrySize(d.Value)
		sh.mu.Lock()
		if _, exists := sh.m[key]; !exists {
			e := &cacheEntry{key: key, stage: d.Stage, v: d.Value, size: size}
			sh.m[key] = e
			sh.pushFront(e)
			sh.bytes += size
			c.bytes.Add(size)
			if c.perShard > 0 {
				for sh.bytes > c.perShard && sh.tail != nil && sh.tail != e {
					victim := sh.tail
					sh.unlink(victim)
					delete(sh.m, victim.key)
					sh.bytes -= victim.size
					c.bytes.Add(-victim.size)
					c.evictions.Add(1)
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}
