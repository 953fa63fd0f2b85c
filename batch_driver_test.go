package repro_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// countdownCtx is a context that turns cancelled at its n-th Err call:
// a deterministic cancellation at one of the pipeline's own check
// points, with no timing involved.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) > 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestLearnHonoursCheckpoint: a learn from a collected trace writes
// checkpoints when CheckpointDir is set, and resuming from them — from
// the finished run's model-phase checkpoint, or from a run killed
// mid-ingestion — gives a model byte-identical to a plain learn.
func TestLearnHonoursCheckpoint(t *testing.T) {
	path := filepath.Join("examples", "traces", "counter.csv")
	tr := readExampleTrace(t, path)
	plain, err := repro.Learn(tr, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean := saveBytes(t, plain)

	dir := t.TempDir()
	opts := repro.LearnOptions{CheckpointDir: dir, CheckpointEvery: 8}
	m, err := repro.Learn(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, m); got != clean {
		t.Errorf("checkpointed learn differs from plain learn\nplain:\n%s\ncheckpointed:\n%s", clean, got)
	}
	info, err := repro.InspectCheckpoint(dir)
	if err != nil {
		t.Fatalf("checkpointed learn left no loadable checkpoint: %v", err)
	}
	if info.Phase != "model" || info.Offset != int64(tr.Len()) {
		t.Errorf("newest checkpoint: phase %q offset %d, want model phase at offset %d", info.Phase, info.Offset, tr.Len())
	}
	resume := opts
	resume.Resume = true
	m, err = repro.Learn(tr, resume)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, m); got != clean {
		t.Errorf("model-phase resume differs from plain learn\nplain:\n%s\nresumed:\n%s", clean, got)
	}

	dir = t.TempDir()
	opts.CheckpointDir = dir
	src, closeSrc := openExampleSource(t, path)
	_, err = repro.LearnSource(&cutSource{src: src, limit: 20}, opts)
	closeSrc()
	if !errors.Is(err, errKilled) {
		t.Fatalf("cut run: err = %v, want the injected crash", err)
	}
	resume.CheckpointDir = dir
	m, err = repro.Learn(tr, resume)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, m); got != clean {
		t.Errorf("resume after crash differs from plain learn\nplain:\n%s\nresumed:\n%s", clean, got)
	}
}

// TestLearnHonoursContext: cancelling the context while a collected
// trace is being abstracted stops the learn with the same
// "interrupted at stage predicate" error a streamed run reports.
func TestLearnHonoursContext(t *testing.T) {
	tr := updownTrace(5000)
	// Until the model stage, every Err call is an ingestion check
	// (window synthesis, and the source every 256 observations), so
	// the third lands inside the 5000-observation predicate stage.
	ctx := newCountdownCtx(3)
	_, err := repro.Learn(tr, repro.LearnOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "interrupted at stage predicate") {
		t.Errorf("err = %q, want it to name the predicate stage", err)
	}
}

// TestLearnTracesObservations: a multi-trace learn counts every
// observation of every trace — each source contributes its w−1 leading
// observations that complete no window, not just the first.
func TestLearnTracesObservations(t *testing.T) {
	t1, t2 := updownTrace(40), updownTrace(25)
	m, err := repro.LearnTraces([]*repro.Trace{t1, t2}, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got int64 = -1
	for _, st := range m.Stages {
		if st.Name == "predicate" {
			got = st.Counter("observations")
		}
	}
	if want := int64(t1.Len() + t2.Len()); got != want {
		t.Errorf("predicate stage observations = %d, want %d", got, want)
	}
}
