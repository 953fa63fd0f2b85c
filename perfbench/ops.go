package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro"
	"repro/internal/trace"
)

// outcome is what one learn (or follow) produced: the saved model and
// the facts the correctness gate compares.
type outcome struct {
	model       []byte
	digest      string // sha256 of model
	automaton   string // NFA.String of the learned automaton
	states      int
	versions    int   // live workloads only
	divergences int64 // live workloads only
}

func newOutcome(m *repro.Model) (outcome, error) {
	var buf bytes.Buffer
	if err := repro.SaveModel(&buf, m); err != nil {
		return outcome{}, fmt.Errorf("save model: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return outcome{
		model:     buf.Bytes(),
		digest:    hex.EncodeToString(sum[:]),
		automaton: m.Automaton.String(),
		states:    m.States,
	}, nil
}

// learn runs one learn operation, or one follow on a live workload:
// trace bytes in, saved model bytes out.
func (w workload) learn(data []byte) (outcome, error) {
	src, err := w.source(data)
	if err != nil {
		return outcome{}, err
	}
	switch w.kind {
	case streamKind:
		m, err := repro.LearnSource(src, repro.LearnOptions{})
		if err != nil {
			return outcome{}, err
		}
		return newOutcome(m)
	case batchKind:
		tr, err := trace.Collect(src)
		if err != nil {
			return outcome{}, err
		}
		m, err := repro.Learn(tr, repro.LearnOptions{})
		if err != nil {
			return outcome{}, err
		}
		return newOutcome(m)
	default:
		p, err := repro.NewPipeline(src.Schema(), repro.LearnOptions{})
		if err != nil {
			return outcome{}, err
		}
		mt, err := p.NewMaintainer(repro.LiveOptions{})
		if err != nil {
			return outcome{}, err
		}
		if err := p.MaintainSource(src, mt); err != nil {
			return outcome{}, err
		}
		m, err := p.LiveModel(mt)
		if err != nil {
			return outcome{}, err
		}
		out, err := newOutcome(m)
		out.versions = mt.Version()
		out.divergences, _ = mt.Divergences()
		return out, err
	}
}

// check runs one check operation, the monitor path: reload the saved
// model and run it over the workload trace. A model that does not
// explain its own training trace breaks the paper's segment-containment
// invariant and fails the check.
func (w workload) check(data, model []byte) error {
	m, err := repro.LoadModel(bytes.NewReader(model))
	if err != nil {
		return err
	}
	src, err := w.source(data)
	if err != nil {
		return err
	}
	var v *repro.Violation
	if w.kind == batchKind {
		tr, err := trace.Collect(src)
		if err != nil {
			return err
		}
		v, err = m.Check(tr)
		if err != nil {
			return err
		}
	} else if v, err = m.CheckSource(src); err != nil {
		return err
	}
	if v != nil {
		return fmt.Errorf("model rejects its own trace: %v", v)
	}
	return nil
}

// pin is a workload's expected result at full size; pins.json holds one
// per workload.
type pin struct {
	Digest      string `json:"digest"`
	States      int    `json:"states"`
	Versions    int    `json:"versions,omitempty"`
	Divergences int64  `json:"divergences,omitempty"`
}

// gate compares one learn outcome with the run's reference (the first
// set-up's outcome) and, when it applies, the pinned result.
func gate(got, ref outcome, p *pin) error {
	if got.digest != ref.digest {
		return fmt.Errorf("model digest %s differs from the first learn's %s", got.digest, ref.digest)
	}
	if got.versions != ref.versions || got.divergences != ref.divergences {
		return fmt.Errorf("live run made %d versions and %d divergences, the first made %d and %d",
			got.versions, got.divergences, ref.versions, ref.divergences)
	}
	if p == nil {
		return nil
	}
	if got.digest != p.Digest || got.states != p.States {
		return fmt.Errorf("model %s with %d states, pinned %s with %d", got.digest, got.states, p.Digest, p.States)
	}
	if got.versions != p.Versions || got.divergences != p.Divergences {
		return fmt.Errorf("live run made %d versions and %d divergences, pinned %d and %d",
			got.versions, got.divergences, p.Versions, p.Divergences)
	}
	return nil
}
