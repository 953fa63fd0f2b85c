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

	"repro/internal/automaton"
	"repro/internal/checkpoint"
	"repro/internal/learn"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/synthcache"
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
	// LearnSource runs, and resume from them (see internal/checkpoint
	// and checkpoint.go). The zero value disables checkpointing.
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
	P         []string
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

// SetSynthCache attaches a cross-run synthesis cache to the model's
// predicate generator for the monitoring path, so abstracting fresh
// traces of a known system reuses windows synthesised by any earlier
// run sharing the cache directory (see internal/synthcache).
func (m *Model) SetSynthCache(c *synthcache.Cache) { m.pipeline.gen.SetSynthCache(c) }

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

// predicateSpan ends a predicate-abstraction span with the stage's
// counters, computed as the generator-stats delta across the stage.
func predicateSpan(sp *pipeline.Span, d predicate.Stats) {
	sp.Add("windows", int64(d.Windows)).
		Add("memo_hits", int64(d.MemoHits)).
		Add("unique_windows", int64(d.UniqueWindows)).
		Add("synth_calls", int64(d.SynthCalls)).
		Add("seed_hits", int64(d.SeedHits)).
		End()
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
		pipeline.Int("refinements", int64(s.Refinements+s.AcceptRefinements)),
		pipeline.Int("sat_conflicts", s.SATConflicts))
}

// modelSpan ends a model-construction span with the solver counters.
func modelSpan(sp *pipeline.Span, s learn.Stats) {
	sp.Add("segments", int64(s.Segments)).
		Add("solver_calls", int64(s.SolverCalls)).
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
	var metrics pipeline.Metrics
	ttr := p.opts.Telemetry.Trace()
	run := ttr.Start(0, "run")
	before := p.gen.Stats()
	sp := metrics.Start("predicate")
	stage := p.startStage(run, "predicate")
	preds, err := p.gen.Sequence(tr)
	if err != nil {
		ttr.End(stage)
		ttr.End(run)
		return nil, err
	}
	d := p.gen.Stats().Minus(before)
	endPredicateStage(ttr, stage, d)
	predicateSpan(sp, d)
	P := make([]string, len(preds))
	alphabet := make(map[string]*predicate.Predicate)
	for i, pr := range preds {
		P[i] = pr.Key
		alphabet[pr.Key] = pr
	}
	sp = metrics.Start("model")
	lo := p.opts.Learn
	lo.TraceSpan = p.startStage(run, "model")
	res, err := learn.GenerateModel(P, lo)
	endModelStage(ttr, lo.TraceSpan, res)
	ttr.End(run)
	if err != nil {
		return nil, fmt.Errorf("core: model construction: %w", err)
	}
	modelSpan(sp, res.Stats)
	return &Model{
		Automaton:      res.Automaton,
		P:              P,
		Alphabet:       alphabet,
		States:         res.Stats.FinalStates,
		PredicateStats: p.gen.Stats(),
		LearnStats:     res.Stats,
		Stages:         metrics.Stages(),
		pipeline:       p,
	}, nil
}

// LearnAll learns one model from several traces of the same system —
// independent runs all starting in the same initial state, exercising
// behaviours one run alone may miss. Predicate abstraction is shared
// (one alphabet) and the learned automaton accepts every run.
func (p *Pipeline) LearnAll(trs []*trace.Trace) (*Model, error) {
	if len(trs) == 0 {
		return nil, errors.New("core: no traces")
	}
	var metrics pipeline.Metrics
	ttr := p.opts.Telemetry.Trace()
	run := ttr.Start(0, "run")
	before := p.gen.Stats()
	sp := metrics.Start("predicate")
	stage := p.startStage(run, "predicate")
	Ps := make([][]string, len(trs))
	alphabet := make(map[string]*predicate.Predicate)
	for i, tr := range trs {
		if tr == nil || tr.Len() < 2 {
			ttr.End(stage)
			ttr.End(run)
			return nil, fmt.Errorf("core: trace %d must have at least 2 observations", i)
		}
		preds, err := p.gen.Sequence(tr)
		if err != nil {
			ttr.End(stage)
			ttr.End(run)
			return nil, fmt.Errorf("core: trace %d: %w", i, err)
		}
		P := make([]string, len(preds))
		for j, pr := range preds {
			P[j] = pr.Key
			alphabet[pr.Key] = pr
		}
		Ps[i] = P
	}
	d := p.gen.Stats().Minus(before)
	endPredicateStage(ttr, stage, d)
	predicateSpan(sp, d)
	sp = metrics.Start("model")
	lo := p.opts.Learn
	lo.TraceSpan = p.startStage(run, "model")
	res, err := learn.GenerateModelMulti(Ps, lo)
	endModelStage(ttr, lo.TraceSpan, res)
	ttr.End(run)
	if err != nil {
		return nil, fmt.Errorf("core: model construction: %w", err)
	}
	modelSpan(sp, res.Stats)
	var flat []string
	for _, P := range Ps {
		flat = append(flat, P...)
	}
	return &Model{
		Automaton:      res.Automaton,
		P:              flat,
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
	preds, err := m.pipeline.gen.Sequence(tr)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, sym := range m.Automaton.Symbols() {
		known[sym] = true
	}
	cur := m.Automaton.Initial()
	for i, pr := range preds {
		succ := m.Automaton.Successors(cur, pr.Key)
		if len(succ) == 0 {
			return &Violation{
				Position:    i,
				Predicate:   pr.Key,
				KnownSymbol: known[pr.Key],
				State:       cur,
			}, nil
		}
		cur = succ[0]
	}
	return nil, nil
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
