// Package synthcache implements the cross-run predicate cache: an
// on-disk, content-addressed memoisation of window-predicate synthesis
// shared by every learner process that points at the same directory.
//
// Window synthesis is the pipeline's dominant cost and — decomposed the
// way internal/predicate's cache replay decomposes it — a pure
// function: once the seed-pool-dependent decisions (the seed pass)
// are separated out, what remains per synthesizer call is the CEGIS
// search, whose minimal result depends only on the window's observation
// content and the synthesis parameters. A cache entry therefore stores
// the *seed-independent* outcome of every synthesizer call of one
// unique window build:
//
//   - OpExpr: the seed-free minimal expression the search returned;
//   - OpSeed: "this call was answered by the producing run's seed
//     pool" — a consuming run must re-decide it against its own pool
//     (usually another seed hit; a fresh serial search otherwise);
//   - OpInconsistent / OpNoSolution: the search's deterministic error
//     class (also seed-independent once the pool missed).
//
// Replaying an entry against any run's authoritative seed pool then
// reproduces that run's uncached behaviour bit for bit, which is what
// lets one cache directory be shared between runs with different seed
// histories — or between wholly different traces of similar systems —
// without ever changing a learned model (DESIGN.md note 16).
//
// Entries are keyed by a SHA-256 digest of the canonical window value
// bytes plus a versioned encoding of the synthesis parameters (computed
// by internal/predicate, which owns the schema), so keys are
// independent of interner insertion order, ingestion mode and process. On disk each entry is one file under a two-hex-digit
// shard directory, written atomically (temp + fsync + rename, the
// checkpoint discipline) with a self-checksummed format:
//
//	t2m-synthcache v1 sha256=<hex> bytes=<n>\n<n bytes of JSON>
//
// Concurrent readers and writers across processes are safe by
// construction: a reader only ever sees a complete old or complete new
// file (rename is atomic), concurrent writers of one key write
// identical content (the key is a content address), and any torn,
// truncated or bit-flipped file fails the length or hash check and is
// treated as a miss — the caller falls back to fresh synthesis and
// usually rewrites the entry. Corruption is counted, never fatal.
package synthcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
)

// Version is the entry format version this package reads and writes.
const Version = 1

const (
	headerMagic = "t2m-synthcache"
	fileSuffix  = ".sce"
)

// Digest is a cache key: the SHA-256 content address of one unique
// window under one set of synthesis parameters.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex (the on-disk name).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Op classifies one synthesizer call's recorded outcome.
type Op string

// The call outcomes an entry can record (see the package comment).
const (
	OpExpr         Op = "expr"
	OpSeed         Op = "seed"
	OpInconsistent Op = "inconsistent"
	OpNoSolution   Op = "nosolution"
)

// Call is one synthesizer call of a window build, in call order.
type Call struct {
	// Op is the outcome class.
	Op Op `json:"op"`
	// Var is the variable whose next function was synthesised
	// (diagnostic; replay verifies it against the live call).
	Var string `json:"var,omitempty"`
	// Expr is the canonical text of the seed-free minimal expression
	// (OpExpr only).
	Expr string `json:"expr,omitempty"`
}

// Entry is one cached window build: the ordered synthesizer-call
// record the replay consumes.
type Entry struct {
	Version int    `json:"version"`
	Calls   []Call `json:"calls"`
}

// ExprCalls counts the entry's OpExpr calls — the enumeration work a
// consuming run saves. Store uses it to decide whether a re-derived
// entry improves on the stored one.
func (e *Entry) ExprCalls() int {
	n := 0
	for _, c := range e.Calls {
		if c.Op == OpExpr {
			n++
		}
	}
	return n
}

// Stats is a snapshot of a cache's work counters.
type Stats struct {
	// Hits counts lookups answered by a valid entry.
	Hits int64
	// Misses counts lookups with no entry (including invalid ones).
	Misses int64
	// Stores counts entries written (or overwritten with an improved
	// record).
	Stores int64
	// Corrupt counts entries rejected by the magic, length, checksum,
	// version or payload checks. Every corrupt lookup also misses.
	Corrupt int64
}

// Cache is a handle on one cache directory. It is safe for concurrent
// use by multiple goroutines, and the directory is safe for concurrent
// use by multiple processes.
type Cache struct {
	dir string

	hits, misses, stores, corrupt atomic.Int64

	// Registry mirrors, resolved by SetTelemetry; all nil-safe no-ops
	// until then.
	cHit, cMiss, cStore, cCorrupt *pipeline.Counter64
	hLookup                       *pipeline.Histogram
}

// Open returns a cache over dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("synthcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("synthcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// SetTelemetry mirrors the cache's counters into the run's metric
// registry (synthcache_{hit,miss,store,corrupt}_total) and records
// lookup latency in the synthcache_lookup_ns histogram. Purely
// observational; must not race with Load/Store.
func (c *Cache) SetTelemetry(tel *pipeline.Telemetry) {
	c.cHit = tel.Count("synthcache_hit_total")
	c.cMiss = tel.Count("synthcache_miss_total")
	c.cStore = tel.Count("synthcache_store_total")
	c.cCorrupt = tel.Count("synthcache_corrupt_total")
	c.hLookup = tel.Hist("synthcache_lookup_ns", "ns")
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Stores:  c.stores.Load(),
		Corrupt: c.corrupt.Load(),
	}
}

// path shards entries by the first digest byte, git-object style, so
// fleet-sized caches never accumulate millions of files in one
// directory.
func (c *Cache) path(d Digest) string {
	name := d.String()
	return filepath.Join(c.dir, name[:2], name[2:]+fileSuffix)
}

// Load looks the digest up, verifying the entry end to end. It returns
// (entry, true) on a valid hit and (nil, false) otherwise; invalid
// entries of any kind — torn, truncated, bit-flipped, wrong magic or
// version, malformed payload — additionally bump the corrupt counter
// and are left for the next Store to overwrite.
func (c *Cache) Load(d Digest) (*Entry, bool) {
	t0 := time.Now()
	defer func() { c.hLookup.Since(t0) }()
	raw, err := os.ReadFile(c.path(d))
	if err != nil {
		c.miss()
		return nil, false
	}
	e, err := Decode(raw)
	if err != nil {
		c.corrupt.Add(1)
		c.cCorrupt.Add(1)
		c.miss()
		return nil, false
	}
	c.hits.Add(1)
	c.cHit.Add(1)
	return e, true
}

// Reject reclassifies the caller's immediately preceding Load hit as
// corrupt: the entry passed the byte-level checks but failed semantic
// decoding above the codec layer (e.g. an expression that no longer
// parses canonically). The lookup counts as a corrupt miss, exactly as
// if Decode had failed.
func (c *Cache) Reject() {
	c.hits.Add(-1)
	c.cHit.Add(-1)
	c.corrupt.Add(1)
	c.cCorrupt.Add(1)
	c.miss()
}

func (c *Cache) miss() {
	c.misses.Add(1)
	c.cMiss.Add(1)
}

// Store writes the entry for the digest atomically (write to temp,
// fsync, rename; last writer wins). Best effort by design: the caller
// already holds the synthesis result, so a failed store costs only the
// next run's miss.
func (c *Cache) Store(d Digest, e *Entry) error {
	raw, err := Encode(e)
	if err != nil {
		return fmt.Errorf("synthcache: encode %s: %w", d, err)
	}
	path := c.path(d)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("synthcache: %w", err)
	}
	err = pipeline.AtomicWriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	})
	if err != nil {
		return fmt.Errorf("synthcache: store %s: %w", d, err)
	}
	c.stores.Add(1)
	c.cStore.Add(1)
	return nil
}

// Len reports the number of entry files currently in the cache
// directory (a directory walk; diagnostics and tests only).
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && filepath.Ext(path) == fileSuffix {
			n++
		}
		return nil
	})
	return n, err
}

// Encode renders an entry in the on-disk format: the versioned header
// line followed by the checksummed JSON payload. The entry's Version
// field is stamped by Encode.
func Encode(e *Entry) ([]byte, error) {
	stamped := *e
	stamped.Version = Version
	payload, err := json.Marshal(&stamped)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s v%d sha256=%s bytes=%d\n", headerMagic, Version, hex.EncodeToString(sum[:]), len(payload))
	buf.Write(payload)
	return buf.Bytes(), nil
}

// Decode parses and verifies the on-disk format: magic, version,
// payload length, payload SHA-256, JSON shape, payload version echo.
// Every failure mode returns an error (the caller counts it as
// corruption).
func Decode(raw []byte) (*Entry, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("synthcache: missing header line")
	}
	header, payload := string(raw[:nl]), raw[nl+1:]
	var (
		magic  string
		ver    int
		sumHex string
		n      int
	)
	if _, err := fmt.Sscanf(header, "%s v%d sha256=%s bytes=%d", &magic, &ver, &sumHex, &n); err != nil {
		return nil, fmt.Errorf("synthcache: malformed header %q", header)
	}
	if magic != headerMagic {
		return nil, fmt.Errorf("synthcache: bad magic %q", magic)
	}
	if ver != Version {
		return nil, fmt.Errorf("synthcache: unsupported version %d", ver)
	}
	if len(payload) != n {
		return nil, fmt.Errorf("synthcache: payload is %d bytes, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("synthcache: payload checksum mismatch")
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("synthcache: payload: %w", err)
	}
	if e.Version != Version {
		return nil, fmt.Errorf("synthcache: payload version %d, header %d", e.Version, ver)
	}
	for i, call := range e.Calls {
		switch call.Op {
		case OpExpr, OpSeed, OpInconsistent, OpNoSolution:
		default:
			return nil, fmt.Errorf("synthcache: call %d has unknown op %q", i, call.Op)
		}
	}
	return &e, nil
}
