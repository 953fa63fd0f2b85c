package main

import (
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/systems"
	"repro/internal/trace"
)

// TestCoreOptionsSegmented: the passive model a probe run compares
// against is learned with the paper's segmented search, so it reports
// the same segments as repro.Learn on the same trace.
func TestCoreOptionsSegmented(t *testing.T) {
	sys, err := systems.Open("counter")
	if err != nil {
		t.Fatal(err)
	}
	full, err := systems.DriveSchedule(sys, 0, systems.CanonicalObservations("counter"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Learn(full, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPipeline(full.Schema(), coreOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.LearnSource(trace.NewTraceSource(full))
	if err != nil {
		t.Fatal(err)
	}
	if got.LearnStats.Segments != want.LearnStats.Segments {
		t.Errorf("probe passive model: %d segments, repro.Learn %d", got.LearnStats.Segments, want.LearnStats.Segments)
	}
}
