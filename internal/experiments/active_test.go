package experiments

import (
	"testing"

	"repro"
	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/systems"
	"repro/internal/trace"
)

// TestActivePassiveSegmented pins the active evaluation to the paper's
// segmented model search: its passive full-trace model and the
// refinement loop's relearns report the same segments as repro.Learn
// on the same trace, not the single segment of the non-segmented
// baseline.
func TestActivePassiveSegmented(t *testing.T) {
	for _, name := range []string{"counter", "serial"} {
		t.Run(name, func(t *testing.T) {
			sys, err := systems.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			n := systems.CanonicalObservations(name)
			full, err := systems.DriveSchedule(sys, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := repro.Learn(full, repro.LearnOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pl, err := core.NewPipeline(full.Schema(), activeCoreOptions())
			if err != nil {
				t.Fatal(err)
			}
			passive, err := pl.LearnSource(trace.NewTraceSource(full))
			if err != nil {
				t.Fatal(err)
			}
			if got := passive.LearnStats.Segments; got != want.LearnStats.Segments {
				t.Errorf("passive model: %d segments, repro.Learn %d", got, want.LearnStats.Segments)
			}
			if passive.Automaton.String() != want.Automaton.String() {
				t.Errorf("passive automaton differs from repro.Learn's:\n%s\nwant:\n%s", passive.Automaton, want.Automaton)
			}
			res, err := active.Refine(sys, full, activeCoreOptions(), active.Options{ProbeCap: n})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Model.LearnStats.Segments; got != want.LearnStats.Segments {
				t.Errorf("active loop's model: %d segments, repro.Learn %d", got, want.LearnStats.Segments)
			}
		})
	}
}
