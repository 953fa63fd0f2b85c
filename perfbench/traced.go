package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that made the call (0 for an operation's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps a traced run's spans in memory; the run writes them out
// when it ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

// begin opens the root span of a new operation.
func (t *tracer) begin(name string) int {
	t.op++
	return t.start(0, name)
}

func (t *tracer) start(parent int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: ms(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes the span and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = ms(time.Since(t.t0))
	return s.End - s.Start
}

// learnOptions equals the learn configuration repro.NewPipeline builds
// from zero LearnOptions, so the decomposed calls do the same work as
// the public entry points.
func learnOptions() learn.Options { return learn.Options{Segmented: true} }

// abstractLimit bounds the observations the abstraction pass holds in
// memory: Model.Abstract takes a materialised trace, and 1M collected
// observations plus their abstraction take hundreds of megabytes.
const abstractLimit = 200_000

// tracedRun is the state a traced run prepares once: the unique windows
// in first-occurrence order, the trace prefix the abstraction pass
// checks, and a reloaded reference model to persist decomposed results
// through.
type tracedRun struct {
	*runner
	tr     tracer
	schema *repro.Schema
	uniq   [][]trace.Observation
	prefix *repro.Trace
	writer *repro.Model
	// synthCalls is the traced learn's synthesis-call count, which the
	// synthesis pass must repeat.
	synthCalls int
}

// traced runs the traced operations until the deadline, each next to
// an untraced learn for the overhead ratio, and returns the spans.
func (r *runner) traced(deadline time.Time) ([]span, error) {
	t := &tracedRun{runner: r, tr: tracer{t0: time.Now()}}
	if err := t.prepare(); err != nil {
		return nil, err
	}
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		runtime.GC()
		t0 := time.Now()
		out, err := r.w.learn(r.data)
		wall := ms(time.Since(t0))
		if r.record(err, func() error { return gate(out, r.ref, r.pin) }) {
			r.add("untraced.learn_ms", wall)
		}
		runtime.GC()
		var s map[string]float64
		if r.w.kind == liveKind {
			s, err = t.follow()
		} else {
			s, err = t.learn()
		}
		if r.record(err, nil) {
			r.addAll(s)
		}
		runtime.GC()
		r.record(t.check(), nil)
		r.record(t.passes(), nil)
	}
	return t.tr.spans, nil
}

// prepare streams the trace once, copying out its unique windows and
// its first abstractLimit observations, and reloads the reference model.
func (t *tracedRun) prepare() error {
	src, err := t.w.source(t.data)
	if err != nil {
		return err
	}
	t.schema = src.Schema()
	t.prefix = trace.New(t.schema)
	w := predicate.DefaultWindow(t.schema)
	seen := map[string]bool{}
	var ring []trace.Observation
	var key strings.Builder
	for {
		obs, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		// Sources reuse their observation buffer.
		obs = append(trace.Observation(nil), obs...)
		if t.prefix.Len() < abstractLimit {
			if err := t.prefix.AppendOwned(obs); err != nil {
				return err
			}
		}
		if ring = append(ring, obs); len(ring) > w {
			ring = ring[1:]
		}
		if len(ring) < w {
			continue
		}
		key.Reset()
		for _, o := range ring {
			for _, v := range o {
				s := v.String()
				key.WriteString(strconv.Itoa(len(s)))
				key.WriteByte(':')
				key.WriteString(s)
			}
		}
		if k := key.String(); !seen[k] {
			seen[k] = true
			t.uniq = append(t.uniq, append([]trace.Observation(nil), ring...))
		}
	}
	t.writer, err = repro.LoadModel(bytes.NewReader(t.ref.model))
	return err
}

// learn is the traced learn: the calls repro.LearnSource and repro.Learn
// make, one span each, rebuilding the untraced run's automaton.
func (t *tracedRun) learn() (map[string]float64, error) {
	s := map[string]float64{}
	tr := &t.tr
	op := tr.begin("learn")
	gc0 := gcCycles.read()
	src, err := t.w.source(t.data)
	if err != nil {
		return nil, err
	}
	var schema *repro.Schema
	var tc *repro.Trace
	if t.w.kind == batchKind {
		id := tr.start(op, "trace.decode")
		tc, err = trace.Collect(src)
		s["trace.decode_ms"] = tr.end(id)
		if err != nil {
			return nil, err
		}
		s["trace.obs"] = float64(tc.Len())
		s["trace.bytes"] = float64(len(t.data))
		schema = tc.Schema()
	} else {
		schema = src.Schema()
	}
	p, err := repro.NewPipeline(schema, repro.LearnOptions{})
	if err != nil {
		return nil, err
	}
	gen := p.Generator()

	a0 := heapAllocs.read()
	id := tr.start(op, "predicate.sequence")
	var res *learn.Result
	var P []string
	var seq *learn.Seq
	if t.w.kind == batchKind {
		var preds []*predicate.Predicate
		preds, err = gen.Sequence(tc)
		P = make([]string, len(preds))
		for i, pr := range preds {
			P[i] = pr.Key
		}
	} else {
		seq = learn.NewSeq()
		err = gen.SequenceSource(src, seqEmit(seq))
	}
	s["predicate.sequence_ms"] = tr.end(id)
	a1 := heapAllocs.read()
	if err != nil {
		return nil, err
	}

	id = tr.start(op, "learn.model")
	if t.w.kind == batchKind {
		res, err = learn.GenerateModel(P, learnOptions())
	} else {
		res, err = learn.GenerateModelSeqs([]*learn.Seq{seq}, learnOptions())
	}
	s["learn.model_ms"] = tr.end(id)
	a2 := heapAllocs.read()
	if err != nil {
		return nil, err
	}

	id = tr.start(op, "core.write_model")
	t.writer.Automaton, t.writer.States = res.Automaton, res.Stats.FinalStates
	var buf bytes.Buffer
	err = repro.SaveModel(&buf, t.writer)
	s["core.write_model_ms"] = tr.end(id)
	wall := tr.end(op)
	if err != nil {
		return nil, err
	}

	if got := res.Automaton.String(); got != t.ref.automaton {
		return nil, errors.New("traced learn rebuilt a different automaton than the untraced learn")
	}
	if !bytes.Equal(buf.Bytes(), t.ref.model) {
		return nil, errors.New("traced learn saved different model bytes than the untraced learn")
	}
	ps := gen.Stats()
	t.synthCalls = ps.SynthCalls
	runs := 0
	if seq != nil {
		runs = seq.Runs()
	} else {
		for i := range P {
			if i == 0 || P[i] != P[i-1] {
				runs++
			}
		}
	}
	s["predicate.runs"] = float64(runs)
	predicateCounts(s, ps)
	s["predicate.alloc_mb"] = float64(a1-a0) / mib
	learnCounts(s, res.Stats, s["learn.model_ms"])
	s["learn.alloc_mb"] = float64(a2-a1) / mib
	s["core.model_bytes"] = float64(buf.Len())
	s["runtime.gc_cycles"] = float64(gcCycles.read() - gc0)
	attributed := s["trace.decode_ms"] + s["predicate.sequence_ms"] + s["learn.model_ms"] + s["core.write_model_ms"]
	s["traced.unattributed_ms"] = wall - attributed
	s["traced.learn_ms"] = wall
	return s, nil
}

// seqEmit appends predicate runs to seq the way core.LearnSource does.
func seqEmit(seq *learn.Seq) func(predicate.Run) error {
	ids := map[*predicate.Predicate]int{}
	return func(r predicate.Run) error {
		id, ok := ids[r.Pred]
		if !ok {
			id = seq.InternSym(r.Pred.Key)
			ids[r.Pred] = id
		}
		seq.AppendID(id, r.Count)
		return nil
	}
}

func predicateCounts(s map[string]float64, ps predicate.Stats) {
	s["predicate.windows"] = float64(ps.Windows)
	s["predicate.memo_hits"] = float64(ps.MemoHits)
	s["predicate.memo_hit_ratio"] = ratio(ps.MemoHits, ps.Windows)
	s["predicate.unique_windows"] = float64(ps.UniqueWindows)
}

func learnCounts(s map[string]float64, ls learn.Stats, modelMS float64) {
	s["learn.solver_calls"] = float64(ls.SolverCalls)
	s["learn.refinements"] = float64(ls.Refinements)
	s["learn.accept_refinements"] = float64(ls.AcceptRefinements)
	s["learn.segments"] = float64(ls.Segments)
	s["learn.states"] = float64(ls.FinalStates)
	s["sat.conflicts"] = float64(ls.SATConflicts)
	s["sat.decisions"] = float64(ls.SATDecisions)
	s["sat.propagations"] = float64(ls.SATPropagations)
	s["sat.learned"] = float64(ls.SATLearned)
	if modelMS > 0 {
		s["sat.conflicts_per_s"] = float64(ls.SATConflicts) / (modelMS / 1e3)
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// follow is the traced follow: core.Pipeline.MaintainSource unrolled so
// each Maintainer.Feed call is its own span.
func (t *tracedRun) follow() (map[string]float64, error) {
	s := map[string]float64{}
	tr := &t.tr
	op := tr.begin("follow")
	gc0 := gcCycles.read()
	src, err := t.w.source(t.data)
	if err != nil {
		return nil, err
	}
	p, err := repro.NewPipeline(src.Schema(), repro.LearnOptions{})
	if err != nil {
		return nil, err
	}
	mt, err := p.NewMaintainer(repro.LiveOptions{})
	if err != nil {
		return nil, err
	}

	var (
		feedMS, solverMS       float64
		feedAlloc, solverAlloc uint64
		revisions              []float64
		feeds, fast            int
	)
	a0 := heapAllocs.read()
	seqID := tr.start(op, "predicate.sequence")
	err = p.Generator().SequenceSource(src, func(r predicate.Run) error {
		// The bookkeeping sits inside the feed span, so the predicate
		// stage's self time stays clean.
		id := tr.start(seqID, "live.feed")
		calls, version := mt.Stats().SolverCalls, mt.Version()
		b0 := heapAllocs.read()
		ferr := mt.Feed(r)
		b := heapAllocs.read() - b0
		d := tr.end(id)
		feeds++
		feedMS += d
		feedAlloc += b
		if mt.Stats().SolverCalls == calls {
			fast++
		} else {
			solverMS += d
			solverAlloc += b
		}
		if mt.Version() != version {
			revisions = append(revisions, d)
		}
		return ferr
	})
	seqMS := tr.end(seqID)
	a1 := heapAllocs.read()
	if err != nil {
		return nil, err
	}
	id := tr.start(op, "live.finish")
	err = mt.Finish()
	finishMS := tr.end(id)
	a2 := heapAllocs.read()
	if err != nil {
		return nil, err
	}
	id = tr.start(op, "live.model")
	m, err := p.LiveModel(mt)
	liveModelMS := tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start(op, "core.write_model")
	var buf bytes.Buffer
	err = repro.SaveModel(&buf, m)
	s["core.write_model_ms"] = tr.end(id)
	wall := tr.end(op)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(buf.Bytes(), t.ref.model) {
		return nil, errors.New("traced follow saved different model bytes than the untraced follow")
	}

	ps := p.Generator().Stats()
	t.synthCalls = ps.SynthCalls
	ls := mt.Stats()
	s["predicate.sequence_ms"] = seqMS - feedMS
	s["predicate.runs"] = float64(feeds)
	predicateCounts(s, ps)
	// Allocation counts advance a span at a time, so the feeds' sum can
	// exceed the whole stage's by a few kilobytes.
	s["predicate.alloc_mb"] = max(float64(a1-a0)-float64(feedAlloc), 0) / mib
	s["learn.model_ms"] = solverMS + finishMS
	learnCounts(s, ls, s["learn.model_ms"])
	s["learn.alloc_mb"] = float64(solverAlloc+a2-a1) / mib
	s["live.feed_ms"] = feedMS
	s["live.feeds"] = float64(feeds)
	s["live.revisions"] = float64(len(revisions))
	s["live.revision_ms.p50"] = median(revisions)
	s["live.revision_ms.max"] = quantile(revisions, 1)
	s["live.versions"] = float64(mt.Version())
	divs, _ := mt.Divergences()
	s["live.divergences"] = float64(divs)
	s["live.solver_calls"] = float64(ls.SolverCalls)
	s["live.fastpath_ratio"] = ratio(fast, feeds)
	s["core.model_bytes"] = float64(buf.Len())
	s["runtime.gc_cycles"] = float64(gcCycles.read() - gc0)
	s["traced.unattributed_ms"] = wall - (seqMS + finishMS + liveModelMS + s["core.write_model_ms"])
	s["traced.learn_ms"] = wall
	return s, nil
}

// check is the traced check: reload the saved model, then run it over
// the workload trace.
func (t *tracedRun) check() error {
	tr := &t.tr
	op := tr.begin("check")
	s := map[string]float64{}
	id := tr.start(op, "core.read_model")
	m, err := repro.LoadModel(bytes.NewReader(t.ref.model))
	s["core.read_model_ms"] = tr.end(id)
	if err != nil {
		return err
	}
	src, err := t.w.source(t.data)
	if err != nil {
		return err
	}
	var v *repro.Violation
	if t.w.kind == batchKind {
		id = tr.start(op, "trace.decode")
		tc, err := trace.Collect(src)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start(op, "core.check")
		v, err = m.Check(tc)
		tr.end(id)
		if err != nil {
			return err
		}
	} else {
		id = tr.start(op, "core.check")
		v, err = m.CheckSource(src)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	tr.end(op)
	if v != nil {
		return fmt.Errorf("model rejects its own trace: %v", v)
	}
	t.addAll(s)
	return nil
}

// passes times the layers a learn runs inside other calls, each in a
// pass of its own over the same input: decoding, window synthesis, the
// one-worker predicate stage, and abstraction plus acceptance of the
// trace (its first abstractLimit observations) by the reloaded model.
func (t *tracedRun) passes() error {
	s := map[string]float64{}
	tr := &t.tr
	if t.w.kind != batchKind {
		op := tr.begin("trace.decode")
		src, err := t.w.source(t.data)
		if err != nil {
			return err
		}
		n := 0
		for {
			if _, err = src.Next(); err != nil {
				break
			}
			n++
		}
		s["trace.decode_ms"] = tr.end(op)
		if err != io.EOF {
			return err
		}
		s["trace.obs"] = float64(n)
		s["trace.bytes"] = float64(len(t.data))
	}

	// One worker: the serial reference for the default -j figure.
	p, err := repro.NewPipeline(t.schema, repro.LearnOptions{Workers: 1})
	if err != nil {
		return err
	}
	src, err := t.w.source(t.data)
	if err != nil {
		return err
	}
	var tc *repro.Trace
	if t.w.kind == batchKind {
		if tc, err = trace.Collect(src); err != nil {
			return err
		}
	}
	op := tr.begin("predicate.sequence.j1")
	if tc != nil {
		_, err = p.Generator().Sequence(tc)
	} else {
		err = p.Generator().SequenceSource(src, seqEmit(learn.NewSeq()))
	}
	s["predicate.sequence_ms.j1"] = tr.end(op)
	if err != nil {
		return err
	}

	// Synthesis: every unique window once, in first-occurrence order,
	// which is the order and the seed-pool evolution of the learn.
	if p, err = repro.NewPipeline(t.schema, repro.LearnOptions{}); err != nil {
		return err
	}
	gen := p.Generator()
	op = tr.begin("synth")
	for _, win := range t.uniq {
		id := tr.start(op, "synth.from_window")
		_, err := gen.FromWindow(trace.FromObservations(t.schema, win))
		s["synth.ms"] += tr.end(id)
		if err != nil {
			return err
		}
	}
	tr.end(op)
	st := gen.Stats()
	if st.SynthCalls != t.synthCalls {
		return fmt.Errorf("synthesis pass made %d synthesis calls, the traced learn %d", st.SynthCalls, t.synthCalls)
	}
	s["synth.calls"] = float64(st.SynthCalls)
	s["synth.seed_hits"] = float64(st.SeedHits)
	s["synth.seed_hit_ratio"] = ratio(st.SeedHits, st.SynthCalls)

	m, err := repro.LoadModel(bytes.NewReader(t.ref.model))
	if err != nil {
		return err
	}
	op = tr.begin("abstract")
	id := tr.start(op, "core.abstract")
	keys, err := m.Abstract(t.prefix)
	s["core.abstract_ms"] = tr.end(id)
	if err != nil {
		return err
	}
	id = tr.start(op, "automaton.accepts")
	ok := m.Automaton.Accepts(keys)
	s["automaton.accepts_ms"] = tr.end(id)
	tr.end(op)
	if !ok {
		return errors.New("model does not accept the abstraction of its own trace")
	}
	t.addAll(s)
	return nil
}
