package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/expr"
	"repro/internal/trace"
)

func counterTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	schema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	tr := trace.New(schema)
	x, dir := int64(1), int64(1)
	for i := 0; i < n; i++ {
		tr.MustAppend(trace.Observation{expr.IntVal(x)})
		if x >= 5 {
			dir = -1
		} else if x <= 1 {
			dir = 1
		}
		x += dir
	}
	return tr
}

func TestModelRoundTrip(t *testing.T) {
	tr := counterTrace(t, 40)
	p := testPipeline(t, tr.Schema())
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadModel: %v\nserialised:\n%s", err, buf.String())
	}

	if !automaton.Equivalent(m.Automaton, loaded.Automaton) {
		t.Errorf("automaton changed:\noriginal:\n%s\nloaded:\n%s", m.Automaton, loaded.Automaton)
	}
	if loaded.States != m.States {
		t.Errorf("states %d, want %d", loaded.States, m.States)
	}
	if len(loaded.Alphabet) != len(m.Alphabet) {
		t.Errorf("alphabet %d, want %d", len(loaded.Alphabet), len(m.Alphabet))
	}

	// The loaded model must monitor identically: same verdicts on a
	// conforming and a violating trace.
	conforming := counterTrace(t, 25)
	v1, err := m.Check(conforming)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := loaded.Check(conforming)
	if err != nil {
		t.Fatal(err)
	}
	if (v1 == nil) != (v2 == nil) {
		t.Errorf("verdicts differ on conforming trace: %v vs %v", v1, v2)
	}
	// A trace that jumps by 2 violates both.
	bad := trace.New(tr.Schema())
	for _, x := range []int64{1, 2, 3, 5, 3, 2} {
		bad.MustAppend(trace.Observation{expr.IntVal(x)})
	}
	v1, _ = m.Check(bad)
	v2, _ = loaded.Check(bad)
	if v1 == nil || v2 == nil {
		t.Fatalf("violation missed: original %v, loaded %v", v1, v2)
	}
	if v1.Position != v2.Position || v1.Predicate != v2.Predicate {
		t.Errorf("violations differ: %+v vs %+v", v1, v2)
	}
}

func TestModelRoundTripEventSchema(t *testing.T) {
	p := testPipeline(t, trace.EventSchema())
	var evs []string
	for i := 0; i < 12; i++ {
		evs = append(evs, "a", "b", "c")
	}
	m, err := p.Learn(trace.FromEvents(evs))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !automaton.Equivalent(m.Automaton, loaded.Automaton) {
		t.Error("automaton changed")
	}
	v, err := loaded.Check(trace.FromEvents([]string{"a", "b", "c", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("conforming trace flagged after reload: %v", v)
	}
}

func TestReadModelErrors(t *testing.T) {
	bad := []string{
		"",
		"wrong magic\n",
		"t2m-model v1\nnoschema\n",
		"t2m-model v1\nschema x:float\n",
		"t2m-model v1\nschema x:int:bogus\n",
		"t2m-model v1\nschema x:int\nwindow z\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 5\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\nq0 x' = x\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\np0 x'' = = x\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\np0 x' = x\ntransitions 1\n0 p9 0\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 1\np0 x' = x\ntransitions 1\n0 p0 7\n",
		"t2m-model v1\nschema x:int\nwindow 3\nstates 1\ninitial 0\nalphabet 0\ntransitions 0\nseeds 1\nzz x\n",
	}
	for _, src := range bad {
		if _, err := ReadModel(strings.NewReader(src)); err == nil {
			t.Errorf("ReadModel accepted:\n%s", src)
		}
	}
}

// TestReadModelHostileHeaders: header counts far beyond what the file
// holds must be rejected with an error, quickly and without sizing any
// allocation from the count.
func TestReadModelHostileHeaders(t *testing.T) {
	const head = "t2m-model v1\nschema x:int\nwindow 3\n"
	const body = "alphabet 1\np0 x' = x\ntransitions 1\n0 p0 0\nseeds 0\n"
	cases := []struct{ name, src string }{
		{"states 4000000000", head + "states 4000000000\ninitial 0\n" + body},
		{"alphabet 4000000000", head + "states 1\ninitial 0\nalphabet 4000000000\np0 x' = x\n"},
		{"alphabet 40000000", head + "states 1\ninitial 0\nalphabet 40000000\np0 x' = x\n"},
		{"transitions 4000000000", head + "states 1\ninitial 0\nalphabet 1\np0 x' = x\ntransitions 4000000000\n0 p0 0\n"},
		{"seeds 4000000000", head + "states 1\ninitial 0\nalphabet 1\np0 x' = x\ntransitions 1\n0 p0 0\nseeds 4000000000\nx x\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := ReadModel(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("ReadModel accepted the header")
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("rejection took %v, want under 1s", d)
			}
		})
	}
}

func TestSeedsSurviveReload(t *testing.T) {
	tr := counterTrace(t, 40)
	p := testPipeline(t, tr.Schema())
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x x + 1") {
		t.Errorf("serialised model missing the x+1 seed:\n%s", buf.String())
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seeds := loaded.pipeline.gen.Seeds()
	if len(seeds["x"]) == 0 {
		t.Error("seeds not restored")
	}
}
