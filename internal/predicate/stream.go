// Streaming predicate sequencing: SequenceSource slides a w-sized ring
// of interned observation ids over a trace.Source and emits the
// predicate sequence as maximal runs of equal predicates, so the
// resident state is O(w + unique windows) regardless of trace length.
//
// This is the package's one window-to-predicate loop. Sequence runs a
// batch trace through it, and FromWindow resolves a single window with
// the same per-window step (resolve), so the batch, streaming and
// single-window paths cannot drift apart: observations are interned in
// the same first-occurrence order and every window takes the very same
// memo-or-build branch, so the seed-pool evolution, interning, stats
// and first error are identical however a trace arrives.
package predicate

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// Run is one maximal run of identical predicates in a streamed
// sequence: Count consecutive windows all abstracted to Pred. Pointer
// equality is the predicate identity (predicates are interned).
type Run struct {
	Pred  *Predicate
	Count int
}

// SequenceSource computes the predicate sequence of the observations
// streamed by src, emitting it as maximal runs in order. It is the
// streaming counterpart of Sequence: the same predicates in the same
// order (run-length encoded), the same generator-state evolution, but
// only O(w + unique windows) resident memory.
//
// emit is called serially, in sequence order; an emit error aborts the
// stream and is returned verbatim.
func (g *Generator) SequenceSource(src trace.Source, emit func(Run) error) error {
	if !src.Schema().Equal(g.schema) {
		return errNoSchema
	}
	em := &runEmitter{emit: emit}
	// The ring grows by append rather than being sized by the window,
	// which may come from an untrusted model file.
	var ids []trace.ObsID
	seen := 0
	nextID := g.nextIDFunc(src)
	for {
		id, err := nextID()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		seen++
		var full bool
		ids, full = slide(ids, g.w, id)
		if !full {
			continue
		}
		p, err := g.resolve(ids)
		if err != nil {
			return fmt.Errorf("predicate: window at observation %d: %w", seen-g.w, err)
		}
		if err := em.add(p); err != nil {
			return err
		}
	}
	if seen < g.w {
		return fmt.Errorf("predicate: trace length %d shorter than window %d", seen, g.w)
	}
	return em.flush()
}

var errNoSchema = fmt.Errorf("predicate: trace schema does not match generator schema")

// runEmitter folds a stream of per-window predicates into maximal runs.
type runEmitter struct {
	emit  func(Run) error
	pred  *Predicate
	count int
}

func (e *runEmitter) add(p *Predicate) error {
	if p == e.pred {
		e.count++
		return nil
	}
	if err := e.flush(); err != nil {
		return err
	}
	e.pred, e.count = p, 1
	return nil
}

func (e *runEmitter) flush() error {
	if e.count == 0 {
		return nil
	}
	r := Run{Pred: e.pred, Count: e.count}
	e.pred, e.count = nil, 0
	return e.emit(r)
}

// slide appends id to the window ids, dropping the oldest id once the
// window is full. It returns true when ids holds a complete window.
func slide(ids []trace.ObsID, w int, id trace.ObsID) ([]trace.ObsID, bool) {
	if len(ids) == w {
		copy(ids, ids[1:])
		ids = ids[:w-1]
	}
	ids = append(ids, id)
	return ids, len(ids) == w
}

// materialize wraps the canonical observations for ids into a window
// trace without copying values (the canonical slices are shared and
// read-only, which buildExpr respects).
func (g *Generator) materialize(ids []trace.ObsID) *trace.Trace {
	obs := make([]trace.Observation, len(ids))
	for i, id := range ids {
		obs[i] = g.obsIntern.Obs(id)
	}
	return trace.FromObservations(g.schema, obs)
}

// nextIDFunc returns the per-observation intern step for src: the
// IDSource fast path when the source can intern its own records (a
// repeated raw record then skips decoding entirely), and decode-then-
// intern otherwise. Both assign identical ids in identical order — the
// IDSource contract.
func (g *Generator) nextIDFunc(src trace.Source) func() (trace.ObsID, error) {
	if is, ok := src.(trace.IDSource); ok {
		return func() (trace.ObsID, error) { return is.NextID(g.obsIntern) }
	}
	return func() (trace.ObsID, error) {
		obs, err := src.Next()
		if err != nil {
			return 0, err
		}
		return g.obsIntern.Intern(obs), nil
	}
}
