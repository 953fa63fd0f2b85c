// Package core wires the paper's pipeline together: trace →
// transition-predicate sequence (internal/predicate) → SAT-based
// minimal automaton (internal/learn). It is the home of the paper's
// primary contribution; the repository-root package repro is a thin
// façade over it.
//
// Beyond learning, the package implements the monitoring application
// the paper motivates for the RT-Linux benchmark (de Oliveira et al.
// use hand-drawn kernel models as runtime monitors): a learned Model
// can Check fresh traces of the same system and report the first
// behaviour the model does not explain, which is either a coverage
// gap or a regression.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/automaton"
	"repro/internal/checkpoint"
	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/trace"
)

// Options configures a Pipeline. Zero values select the paper's
// defaults (see the field docs of predicate.Options and
// learn.Options).
type Options struct {
	Predicate predicate.Options
	Learn     learn.Options
	// Telemetry attaches a run tracer and metric registry to every
	// learning run of the pipeline: run → stage → unit spans in the
	// trace, counters and latency histograms in the registry. Nil
	// disables all recording at near-zero cost; telemetry never
	// changes results.
	Telemetry *pipeline.Telemetry
	// Context cancels learning and checking runs at safe boundaries:
	// between observations during ingestion, inside synthesis, and
	// between solver rounds during model construction. Nil means never
	// cancelled. Cancellation surfaces as an "interrupted at stage X"
	// error and never leaves partial state behind.
	Context context.Context
	// Checkpoint enables periodic crash-consistent snapshots of
	// single-source learning runs, and resume from them (see
	// internal/checkpoint and checkpoint.go). The zero value disables
	// checkpointing.
	Checkpoint checkpoint.Config
}

// Pipeline learns models from traces over one schema. The predicate
// generator is stateful (window memoisation, next-function seeds), so
// learning several traces of the same system through one Pipeline
// yields a consistent predicate alphabet.
type Pipeline struct {
	schema *trace.Schema
	opts   Options
	gen    *predicate.Generator
}

// NewPipeline returns a pipeline for the schema.
func NewPipeline(schema *trace.Schema, opts Options) (*Pipeline, error) {
	if opts.Context != nil {
		opts.Predicate.Context = opts.Context
		opts.Learn.Context = opts.Context
	}
	gen, err := predicate.NewGenerator(schema, opts.Predicate)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{schema: schema, opts: opts, gen: gen}
	if opts.Telemetry != nil {
		p.SetTelemetry(opts.Telemetry)
	}
	return p, nil
}

// SetTelemetry attaches (or replaces) the pipeline's telemetry after
// construction — the monitor path loads a persisted model first and
// attaches telemetry afterwards. Must not run concurrently with a
// learning run.
func (p *Pipeline) SetTelemetry(tel *pipeline.Telemetry) {
	p.opts.Telemetry = tel
	p.opts.Learn.Telemetry = tel
	p.gen.SetTelemetry(tel, 0)
}

// startStage opens a stage trace span under the run span and points
// the predicate generator's unit spans at it. Returns the span id (0
// when tracing is off).
func (p *Pipeline) startStage(run pipeline.SpanID, name string) pipeline.SpanID {
	tr := p.opts.Telemetry.Trace()
	if !tr.Enabled() {
		return 0
	}
	id := tr.Start(run, name)
	if name == "predicate" {
		p.gen.SetTelemetry(p.opts.Telemetry, id)
	}
	return id
}

// Generator exposes the pipeline's predicate generator.
func (p *Pipeline) Generator() *predicate.Generator { return p.gen }

// Model is a learned model bound to its pipeline, so it can abstract
// and check further traces.
type Model struct {
	Automaton *automaton.NFA
	Alphabet  map[string]*predicate.Predicate
	States    int

	PredicateStats predicate.Stats
	LearnStats     learn.Stats
	// Stages is the per-stage metrics report for this learning run:
	// wall/CPU time and counters for the predicate-abstraction and
	// model-construction stages.
	Stages []pipeline.StageMetrics

	pipeline *Pipeline
}

// SetTelemetry attaches telemetry to the model's pipeline for the
// monitoring path (Check/CheckSource on a loaded model).
func (m *Model) SetTelemetry(tel *pipeline.Telemetry) { m.pipeline.SetTelemetry(tel) }

// SetContext attaches a cancellation context to the model's pipeline
// for the monitoring path: CheckSource stops between observations and
// in-flight synthesis aborts when ctx is cancelled.
func (m *Model) SetContext(ctx context.Context) {
	m.pipeline.opts.Context = ctx
	m.pipeline.gen.SetContext(ctx)
}

// BuildManifest assembles the run-manifest skeleton for this model:
// per-stage metrics, the registry's counters and histogram summaries,
// and the final model statistics. The caller fills in tool identity,
// created_at, config and inputs before writing (see pipeline.Manifest).
func (m *Model) BuildManifest(tel *pipeline.Telemetry) *pipeline.Manifest {
	man := &pipeline.Manifest{
		Version: pipeline.ManifestVersion,
		Stages:  pipeline.StageManifests(m.Stages),
	}
	mm := &pipeline.ModelManifest{
		States:            m.States,
		Symbols:           len(m.Alphabet),
		Segments:          m.LearnStats.Segments,
		SolverCalls:       m.LearnStats.SolverCalls,
		Refinements:       m.LearnStats.Refinements,
		AcceptRefinements: m.LearnStats.AcceptRefinements,
		SATConflicts:      m.LearnStats.SATConflicts,
		SATDecisions:      m.LearnStats.SATDecisions,
		SATPropagations:   m.LearnStats.SATPropagations,
		SATLearned:        m.LearnStats.SATLearned,
	}
	if m.Automaton != nil {
		mm.Transitions = m.Automaton.NumTransitions()
	}
	man.Model = mm
	if tel != nil && tel.Registry != nil {
		man.Counters = tel.Registry.CounterValues()
		man.Histograms = tel.Registry.Summaries()
	}
	return man
}

// endPredicateStage closes a predicate stage trace span with the
// generator-stats delta of the stage.
func endPredicateStage(tr *pipeline.Tracer, id pipeline.SpanID, d predicate.Stats) {
	if !tr.Enabled() {
		return
	}
	tr.End(id,
		pipeline.Int("windows", int64(d.Windows)),
		pipeline.Int("memo_hits", int64(d.MemoHits)),
		pipeline.Int("unique_windows", int64(d.UniqueWindows)),
		pipeline.Int("synth_calls", int64(d.SynthCalls)),
		pipeline.Int("seed_hits", int64(d.SeedHits)))
}

// endModelStage closes a model stage trace span with the search's
// solver counters (res may be nil on failed runs).
func endModelStage(tr *pipeline.Tracer, id pipeline.SpanID, res *learn.Result) {
	if !tr.Enabled() {
		return
	}
	if res == nil {
		tr.End(id, pipeline.Bool("ok", false))
		return
	}
	s := res.Stats
	tr.End(id,
		pipeline.Int("states", int64(s.FinalStates)),
		pipeline.Int("segments", int64(s.Segments)),
		pipeline.Int("solver_calls", int64(s.SolverCalls)),
		pipeline.Int("canon_solves", int64(s.CanonSolves)),
		pipeline.Int("refinements", int64(s.Refinements+s.AcceptRefinements)),
		pipeline.Int("sat_conflicts", s.SATConflicts))
}

// modelSpan ends a model-construction span with the solver counters.
func modelSpan(sp *pipeline.Span, s learn.Stats) {
	sp.Add("segments", int64(s.Segments)).
		Add("solver_calls", int64(s.SolverCalls)).
		Add("canon_solves", int64(s.CanonSolves)).
		Add("refinements", int64(s.Refinements+s.AcceptRefinements)).
		Add("sat_conflicts", s.SATConflicts).
		Add("sat_decisions", s.SATDecisions).
		Add("sat_propagations", s.SATPropagations).
		Add("sat_learned", s.SATLearned).
		Add("states", int64(s.FinalStates)).
		End()
}

// Learn runs the full pipeline on one trace.
func (p *Pipeline) Learn(tr *trace.Trace) (*Model, error) {
	if tr == nil || tr.Len() < 2 {
		return nil, errors.New("core: trace must have at least 2 observations")
	}
	return p.learn([]trace.Source{trace.NewTraceSource(tr)})
}

// LearnSource runs the full pipeline on a streamed trace.
func (p *Pipeline) LearnSource(src trace.Source) (*Model, error) {
	return p.learn([]trace.Source{src})
}

// LearnSources learns one model from several traces of the same
// system — independent runs all starting in the same initial state,
// exercising behaviours one run alone may miss. Predicate abstraction
// is shared (one alphabet) and the learned automaton accepts every
// run. It is the fold step of the active-probing loop: each probe
// round relearns from [seed trace, probe trace].
//
// Checkpointing is refused for more than one source: the checkpoint
// driver snapshots one source's ingestion front. Callers that need
// crash safety around multi-trace learning (the active loop) get it
// at a coarser grain — every round's relearn is a complete, atomic
// LearnSources run, so a crash rolls back to the previous round's
// model.
func (p *Pipeline) LearnSources(srcs []trace.Source) (*Model, error) {
	if len(srcs) == 0 {
		return nil, errors.New("core: no sources")
	}
	return p.learn(srcs)
}

// learn is the one learn driver behind Learn, LearnSource and
// LearnSources. Each source is windowed straight into its own
// run-length-encoded predicate sequence and the sequences are solved
// together, so resident memory is O(window + unique windows + unique
// grams + RLE runs), never O(trace length), and the expanded predicate
// sequence is never materialised. A collected trace is fed as a
// trace.TraceSource, so it learns exactly the automaton its file
// streamed does.
//
// The predicate stage metrics carry the generator counters plus
// observations (windows plus w−1 per source), bytes_read (when a
// source reads a byte stream), obs_per_sec, runs and peak_heap. With
// Options.Checkpoint enabled a single-source run is periodically
// snapshotted (and possibly resumed — see checkpoint.go); with
// Options.Context set it is cancellable at observation and
// solver-round boundaries. Both produce models byte-identical to a
// plain uninterrupted run.
func (p *Pipeline) learn(srcs []trace.Source) (*Model, error) {
	if p.opts.Checkpoint.Enabled() && len(srcs) > 1 {
		return nil, errors.New("core: checkpointing is not supported for multi-source learning")
	}
	var metrics pipeline.Metrics
	tel := p.opts.Telemetry
	ttr := tel.Trace()
	run := ttr.Start(0, "run")
	before := p.gen.Stats()
	hs := pipeline.StartHeapSampler(0)
	sp := metrics.Start("predicate")
	stage := p.startStage(run, "predicate")
	wallStart := time.Now()
	abort := func() {
		hs.Stop()
		ttr.End(stage)
		ttr.End(run)
	}

	// Live gauges: heap from the sampler (its cached values stay
	// readable after Stop), observation throughput from the windows
	// counter. Registered per run; later runs simply replace them.
	tel.Gauge("heap_bytes", func() float64 { return float64(hs.Current()) })
	tel.Gauge("peak_heap_bytes", func() float64 { return float64(hs.Peak()) })
	windows := tel.Count("predicate_windows_total")
	tel.Gauge("obs_per_sec", func() float64 {
		secs := time.Since(wallStart).Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(windows.Value()) / secs
	})
	hRunLen := tel.Hist("predicate_run_len", "windows")

	var drv *ckptDriver
	if p.opts.Checkpoint.Enabled() {
		var err error
		if drv, err = newCkptDriver(p, p.opts.Checkpoint); err != nil {
			abort()
			return nil, err
		}
		drv.runSpan = run
	}

	seqs := make([]*learn.Seq, len(srcs))
	for i := range seqs {
		seqs[i] = learn.NewSeq()
	}
	alphabet := make(map[string]*predicate.Predicate)
	var resumeLearn *learn.CheckpointState
	if drv != nil && drv.from != nil {
		var err error
		if seqs[0], alphabet, resumeLearn, err = drv.restore(); err != nil {
			abort()
			return nil, err
		}
	}
	var bytesRead int64
	for i, src := range srcs {
		seq := seqs[i]
		// Predicates are interned, so their pointers are the cheap
		// identity: cache the per-predicate symbol id and alphabet
		// insertion to avoid hashing the (long) predicate key on every
		// run.
		symIDs := map[*predicate.Predicate]int{}
		emit := func(r predicate.Run) error {
			id, ok := symIDs[r.Pred]
			if !ok {
				alphabet[r.Pred.Key] = r.Pred
				id = seq.InternSym(r.Pred.Key)
				symIDs[r.Pred] = id
			}
			seq.AppendID(id, r.Count)
			hRunLen.Observe(int64(r.Count))
			return nil
		}
		var err error
		if drv != nil {
			drv.seq = seq
			err = drv.ingest(src, emit)
		} else {
			err = p.gen.SequenceSource(p.cancellable(src), emit)
		}
		if err != nil {
			abort()
			if len(srcs) > 1 {
				err = fmt.Errorf("source %d: %w", i, err)
			}
			return nil, p.interrupted("predicate", err)
		}
		if bs, ok := src.(trace.ByteSource); ok {
			bytesRead += bs.BytesRead()
		}
	}
	d := p.gen.Stats().Minus(before)
	observations := int64(d.Windows) + int64(len(srcs))*int64(p.gen.Window()-1)
	sp.Add("windows", int64(d.Windows)).
		Add("memo_hits", int64(d.MemoHits)).
		Add("unique_windows", int64(d.UniqueWindows)).
		Add("synth_calls", int64(d.SynthCalls)).
		Add("seed_hits", int64(d.SeedHits)).
		Add("observations", observations)
	if bytesRead > 0 {
		sp.Add("bytes_read", bytesRead)
	}
	if secs := time.Since(wallStart).Seconds(); secs > 0 {
		rate := float64(observations) / secs
		sp.Add("obs_per_sec", int64(rate))
		// Freeze the throughput gauge at the stage's final rate so a
		// lingering /metrics endpoint reports the run, not the decay.
		tel.Gauge("obs_per_sec", func() float64 { return rate })
	}
	runs := 0
	for _, seq := range seqs {
		runs += seq.Runs()
	}
	sp.Add("runs", int64(runs)).
		Add("peak_heap", int64(hs.Stop())).
		End()
	endPredicateStage(ttr, stage, d)

	sp = metrics.Start("model")
	lo := p.opts.Learn
	lo.TraceSpan = p.startStage(run, "model")
	if drv != nil {
		drv.freezeIngest()
		lo.Resume = resumeLearn
		lo.Checkpoint = drv.learnHook
	}
	res, err := learn.GenerateModelSeqs(seqs, lo)
	endModelStage(ttr, lo.TraceSpan, res)
	ttr.End(run)
	if err != nil {
		if ierr := p.interrupted("model", err); ierr != err {
			return nil, ierr
		}
		return nil, fmt.Errorf("core: model construction: %w", err)
	}
	modelSpan(sp, res.Stats)
	return &Model{
		Automaton:      res.Automaton,
		Alphabet:       alphabet,
		States:         res.Stats.FinalStates,
		PredicateStats: p.gen.Stats(),
		LearnStats:     res.Stats,
		Stages:         metrics.Stages(),
		pipeline:       p,
	}, nil
}

// Violation reports the first behaviour of a checked trace that the
// model does not explain.
type Violation struct {
	// Position is the predicate-sequence index at which the run
	// died (≈ the trace observation index of the window).
	Position int
	// Predicate is the unexplained predicate.
	Predicate string
	// KnownSymbol reports whether the predicate occurs anywhere in
	// the model (false means entirely novel behaviour; true means a
	// known behaviour in an unexpected context).
	KnownSymbol bool
	// State is the model state the run was in.
	State automaton.State
}

// Error renders the violation.
func (v *Violation) Error() string {
	kind := "novel behaviour"
	if v.KnownSymbol {
		kind = "known behaviour in unexpected context"
	}
	return fmt.Sprintf("monitor: %s at position %d: %s (model state q%d)",
		kind, v.Position, v.Predicate, v.State+1)
}

// Abstract maps a trace to its predicate-key sequence using the
// model's own generator, so the keys are alphabet-consistent with the
// model's transition labels. Windows unseen during learning are
// synthesized on the fly (and get fresh keys the automaton cannot
// know); the active prober uses this to locate and report divergences
// with their surrounding symbol context.
func (m *Model) Abstract(tr *trace.Trace) ([]string, error) {
	preds, err := m.pipeline.gen.Sequence(tr)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(preds))
	for i, pr := range preds {
		keys[i] = pr.Key
	}
	return keys, nil
}

// Check abstracts a fresh trace with the model's own predicate
// generator and runs it through the automaton, returning the first
// violation, or nil when the model explains the whole trace. The
// paper's monitoring application: learned kernel models checking live
// scheduler traces.
func (m *Model) Check(tr *trace.Trace) (*Violation, error) {
	return m.CheckSource(trace.NewTraceSource(tr))
}

// errCheckDone aborts the predicate stream once CheckSource has found
// its violation; it never escapes.
var errCheckDone = errors.New("core: check finished")

// CheckSource is Check for sources: the trace is abstracted as it is
// decoded and never materialised, so arbitrarily long live traces can
// be monitored in bounded memory.
func (m *Model) CheckSource(src trace.Source) (*Violation, error) {
	known := map[string]bool{}
	for _, sym := range m.Automaton.Symbols() {
		known[sym] = true
	}
	cur := m.Automaton.Initial()
	pos := 0
	var v *Violation
	err := m.pipeline.gen.SequenceSource(m.pipeline.cancellable(src), func(r predicate.Run) error {
		for i := 0; i < r.Count; i++ {
			succ := m.Automaton.Successors(cur, r.Pred.Key)
			if len(succ) == 0 {
				v = &Violation{
					Position:    pos,
					Predicate:   r.Pred.Key,
					KnownSymbol: known[r.Pred.Key],
					State:       cur,
				}
				return errCheckDone
			}
			if succ[0] == cur {
				// Self-loop: the rest of the run stays put.
				pos += r.Count - i
				break
			}
			cur = succ[0]
			pos++
		}
		return nil
	})
	if err != nil && !errors.Is(err, errCheckDone) {
		return nil, err
	}
	return v, nil
}

// Explain returns, for every automaton transition, one witness step
// index of the trace where the transition's predicate holds —
// documentation for each learned edge.
func (m *Model) Explain(tr *trace.Trace) (map[string]int, error) {
	witness := map[string]int{}
	for _, sym := range m.Automaton.Symbols() {
		pr, ok := m.Alphabet[sym]
		if !ok {
			continue
		}
		for step := 0; step < tr.Steps(); step++ {
			holds, err := tr.HoldsAt(pr.Expr, step)
			if err != nil {
				return nil, err
			}
			if holds {
				witness[sym] = step
				break
			}
		}
	}
	return witness, nil
}
