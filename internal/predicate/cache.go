// Cross-run synthesis caching: with a synthcache.Cache attached
// (Options.Cache / SetSynthCache), every unique-window build consults
// an on-disk, content-addressed record of a previous build of the same
// window before enumerating, and publishes its own outcome after.
//
// A cache entry records one window build as its per-call synthesis
// outcomes, keeping only what does not depend on when (or in which
// process) the build ran:
//
//   - a call the producing run answered by CEGIS search stores the
//     minimal expression, which depends only on window content and
//     synthesis parameters (the CEGIS search ignores seeds once the
//     seed pass misses);
//   - a call the producing run answered from its seed pool stores only
//     a marker: pools are run-local history, so the consuming run must
//     re-decide the call against its own pool — replayNext treats the
//     marker like a missing record and falls back to full synthesis
//     when its authoritative seed pass misses;
//   - deterministic failures (ErrInconsistent, ErrNoSolution) store
//     their class; anything else (cancellation) poisons the record so
//     it is never published.
//
// A cached build replays the window through buildExpr, taking each
// call's record in order but always deciding it against the live seed
// pool first, exactly as synthesizeNext would. So a model learned with
// the cache cold, warm, shared, corrupted or disabled is byte-identical
// in all five states — the cache can only change how fast a window
// builds, never what it builds.
//
// Keys hash the window's canonical value content (insertion-order
// independent: two runs that intern observations in different orders
// digest the same window identically) together with every synthesis
// parameter that can change a build's outcome.
package predicate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/expr"
	"repro/internal/synth"
	"repro/internal/synthcache"
	"repro/internal/trace"
)

// SetSynthCache attaches a cross-run synthesis cache, or detaches it
// (nil). Attach before any Sequence/FromWindow call, not concurrently
// with one. Models are byte-identical with and without a cache.
func (g *Generator) SetSynthCache(c *synthcache.Cache) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cache = c
	if c == nil {
		g.cachePrefix, g.cacheTypes = nil, nil
		return
	}
	g.cachePrefix = cacheKeyPrefix(g.w, g.schema, g.opts.Synth)
	g.cacheTypes = g.schema.Types()
	if g.tel != nil {
		c.SetTelemetry(g.tel)
	}
}

// cacheKeyPrefix renders every parameter besides the window content
// that determines a build's outcome: window width, schema (names,
// types, roles — they drive guard/branch selection and the synthesis
// grammar), and the synthesizer options with MaxSize resolved. Seeds,
// Work and NoReuse are deliberately absent: entries record
// seed-independent outcomes, candidate counting is telemetry, and
// NoReuse is applied live at replay. The embedded format version must
// be bumped whenever buildExpr's call sequence or the synthesizer's
// search order changes meaning, so stale fleets miss instead of
// replaying records under the wrong semantics.
func cacheKeyPrefix(w int, schema *trace.Schema, so synth.Options) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "t2m-synthcache-key v%d\n", synthcache.Version)
	fmt.Fprintf(&b, "w=%d\n", w)
	for i := 0; i < schema.Len(); i++ {
		v := schema.Var(i)
		fmt.Fprintf(&b, "var=%q type=%d role=%d\n", v.Name, v.Type, v.Role)
	}
	maxSize := so.MaxSize
	if maxSize == 0 {
		maxSize = synth.DefaultMaxSize
	}
	fmt.Fprintf(&b, "maxsize=%d mul=%t\n", maxSize, so.EnableMul)
	fmt.Fprintf(&b, "arith=%v cmp=%v\n", so.ExtraArithConsts, so.ExtraCmpConsts)
	return b.Bytes()
}

// cacheDigest is the content address of one window: the parameter
// prefix followed by every observation value's length-prefixed
// canonical text, in window and schema order. Hashing value content
// rather than interned ids keeps the digest independent of interner
// insertion order (ids are first-sight-ordered; text is not).
func (g *Generator) cacheDigest(win *trace.Trace) synthcache.Digest {
	h := sha256.New()
	h.Write(g.cachePrefix)
	var n [4]byte
	for i := 0; i < win.Len(); i++ {
		for _, v := range win.At(i) {
			s := v.String()
			binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
			h.Write(n[:])
			io.WriteString(h, s)
		}
	}
	var d synthcache.Digest
	h.Sum(d[:0])
	return d
}

// synthRecord is the replayable outcome of one synthesizer call,
// decoded from a cache entry.
type synthRecord struct {
	f   expr.Expr
	err error
	// seed marks a call the producing run answered from its seed pool:
	// replay must re-decide it against the live pool (synthesising
	// afresh on a miss), never reuse a value.
	seed bool
	// name is the recorded variable; replay poisons the job on a
	// mismatch.
	name string
}

// cacheJob is one unique-window build against the cache: the records
// looked up for the window and the outcomes replay collects for
// publication.
type cacheJob struct {
	recs       []synthRecord
	dig        synthcache.Digest
	fromCache  bool
	cachedExpr int // ExprCalls of the loaded entry
	pub        []synthcache.Call
	poison     bool
}

// buildCached is the unique-window build against the cache: look the
// window up, replay whatever record exists (an empty record list
// replays as plain synthesis), publish on success. Callers hold g.mu
// and wrap the call in buildUnique's telemetry.
func (g *Generator) buildCached(win *trace.Trace) (expr.Expr, error) {
	job := g.cacheLookup(win)
	e, err := g.buildExpr(win, g.replayNexter(job))
	if err == nil {
		g.cachePublish(job)
	}
	return e, err
}

// cacheLookup consults the cache for the window and returns its job,
// with the decoded call records on a hit. Entries that pass the
// byte-level checksum but fail semantic decoding (unparseable or
// non-canonical expression text) are reclassified as corrupt and
// treated as misses.
func (g *Generator) cacheLookup(win *trace.Trace) *cacheJob {
	job := &cacheJob{dig: g.cacheDigest(win)}
	ent, ok := g.cache.Load(job.dig)
	if !ok {
		return job
	}
	recs, err := g.decodeEntry(ent)
	if err != nil {
		g.cache.Reject()
		return job
	}
	job.recs = recs
	job.fromCache = true
	job.cachedExpr = ent.ExprCalls()
	return job
}

// decodeEntry converts a cache entry into replayable records, with the
// same canonical round-trip check model loading applies: every stored
// expression must re-render to its stored text.
func (g *Generator) decodeEntry(ent *synthcache.Entry) ([]synthRecord, error) {
	recs := make([]synthRecord, len(ent.Calls))
	for i, call := range ent.Calls {
		recs[i].name = call.Var
		switch call.Op {
		case synthcache.OpExpr:
			e, err := expr.Parse(call.Expr, g.cacheTypes)
			if err != nil {
				return nil, err
			}
			if canon := e.String(); canon != call.Expr {
				return nil, fmt.Errorf("predicate: cached expression not canonical: %q vs %q", call.Expr, canon)
			}
			recs[i].f = e
		case synthcache.OpSeed:
			recs[i].seed = true
		case synthcache.OpInconsistent:
			recs[i].err = synth.ErrInconsistent
		case synthcache.OpNoSolution:
			recs[i].err = synth.ErrNoSolution
		default:
			return nil, fmt.Errorf("predicate: cached call %d has unknown op %q", i, call.Op)
		}
	}
	return recs, nil
}

// pubCall records one replay outcome for publication: a pool answer as
// a seed marker, a search answer as its expression text, deterministic
// failures as their class. Any other outcome poisons the window's
// record.
func (g *Generator) pubCall(job *cacheJob, name string, f expr.Expr, seedHit bool, err error) {
	if job.poison {
		return
	}
	call := synthcache.Call{Var: name}
	switch {
	case err == nil && seedHit:
		call.Op = synthcache.OpSeed
	case err == nil:
		call.Op = synthcache.OpExpr
		call.Expr = f.String()
	case errors.Is(err, synth.ErrInconsistent):
		call.Op = synthcache.OpInconsistent
	case errors.Is(err, synth.ErrNoSolution):
		call.Op = synthcache.OpNoSolution
	default:
		job.poison = true
		return
	}
	job.pub = append(job.pub, call)
}

// cachePublish stores the replayed window's outcome record, best
// effort (a failed store costs only the next run's miss). An entry
// that was itself loaded from the cache is rewritten only when this
// run resolved strictly more calls to seed-free expressions than the
// stored record — the richer record saves future cold-pool runs more
// enumeration, while an equal or poorer one would only churn the file.
func (g *Generator) cachePublish(job *cacheJob) {
	if job.poison {
		return
	}
	ent := &synthcache.Entry{Calls: job.pub}
	if job.fromCache && ent.ExprCalls() <= job.cachedExpr {
		return
	}
	_ = g.cache.Store(job.dig, ent)
}

// replayNexter returns the nextFunc a cached build drives: positional
// consumption of job.recs, one record per synthesizer call.
func (g *Generator) replayNexter(job *cacheJob) nextFunc {
	cur := 0
	return func(name string, examples []synth.Example) (expr.Expr, error) {
		var rec *synthRecord
		if cur < len(job.recs) {
			rec = &job.recs[cur]
			cur++
		}
		return g.replayNext(name, examples, rec, job)
	}
}

// replayNext reproduces exactly what synthesizeNext would have
// returned at this point of the seed-pool evolution, substituting the
// cached record for the enumeration. rec is nil on a cache miss or
// past the end of a shorter record. Every outcome is also recorded on
// the job for publication (pubCall). Callers hold g.mu.
func (g *Generator) replayNext(name string, examples []synth.Example, rec *synthRecord, job *cacheJob) (expr.Expr, error) {
	g.stats.SynthCalls++
	// Serial order inside synth.Synthesize: consistency check, then
	// seed pass, then search.
	if err := synth.CheckExamples(examples); err != nil {
		g.pubCall(job, name, nil, false, err)
		return nil, err
	}
	if rec != nil && rec.name != name {
		// A record for a different call sequence than this build ran:
		// fall back to plain synthesis for the rest of the window and
		// never publish it.
		job.poison = true
		rec = nil
	}
	if rec != nil && rec.seed {
		// The producing run's pool answered this call; ours decides
		// afresh below, exactly like a missing record.
		rec = nil
	}
	var f expr.Expr
	if !g.opts.NoReuse {
		for _, s := range g.sortedSeeds(name) {
			if synth.ConsistentWith(s, examples) {
				f = s
				break
			}
		}
	}
	seedHit := f != nil
	if f == nil {
		switch {
		case rec == nil:
			// No usable record: synthesise (the seed pass inside
			// misses again; only the CEGIS search runs).
			var err error
			f, err = g.searchNext(name, examples)
			if err != nil {
				g.pubCall(job, name, nil, false, err)
				return nil, err
			}
		case rec.err != nil:
			// The seed pool could not rescue the recorded failure,
			// so synthesis fails identically.
			g.pubCall(job, name, nil, false, rec.err)
			return nil, rec.err
		default:
			f = rec.f
		}
	}
	g.noteResult(name, f)
	g.pubCall(job, name, f, seedHit, nil)
	return f, nil
}
