package core

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/learn"
	"repro/internal/predicate"
	"repro/internal/trace"
)

func testPipeline(t *testing.T, schema *trace.Schema) *Pipeline {
	t.Helper()
	p, err := NewPipeline(schema, Options{Learn: learn.Options{Segmented: true}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(trace.EventSchema(), Options{
		Predicate: predicate.Options{Window: 1},
	}); err == nil {
		t.Error("window 1 accepted")
	}
	p := testPipeline(t, trace.EventSchema())
	if _, err := p.Learn(nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := p.Learn(trace.FromEvents([]string{"a"})); err == nil {
		t.Error("1-observation trace accepted")
	}
}

func TestLearnAndCheck(t *testing.T) {
	p := testPipeline(t, trace.EventSchema())
	var evs []string
	for i := 0; i < 10; i++ {
		evs = append(evs, "a", "b")
	}
	tr := trace.FromEvents(evs)
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}
	P, err := m.Abstract(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.States == 0 || len(P) != len(evs)-1 {
		t.Fatalf("model: states=%d |P|=%d", m.States, len(P))
	}
	v, err := m.Check(trace.FromEvents([]string{"a", "b", "a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("conforming trace flagged: %v", v)
	}
	v, err = m.Check(trace.FromEvents([]string{"a", "a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("aa not flagged")
	}
	if v.Position != 1 || !v.KnownSymbol {
		t.Errorf("violation = %+v, want position 1, known symbol", v)
	}
}

func TestCheckSchemaMismatch(t *testing.T) {
	p := testPipeline(t, trace.EventSchema())
	m, err := p.Learn(trace.FromEvents([]string{"a", "b", "a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	other := trace.New(trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int}))
	other.MustAppend(trace.Observation{expr.IntVal(1)})
	other.MustAppend(trace.Observation{expr.IntVal(2)})
	other.MustAppend(trace.Observation{expr.IntVal(3)})
	if _, err := m.Check(other); err == nil {
		t.Error("mismatched schema accepted by Check")
	}
}

func TestExplainAllSymbols(t *testing.T) {
	schema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	tr := trace.New(schema)
	for _, v := range []int64{1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2, 1} {
		tr.MustAppend(trace.Observation{expr.IntVal(v)})
	}
	p := testPipeline(t, schema)
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.Explain(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != len(m.Automaton.Symbols()) {
		t.Errorf("witnesses for %d of %d symbols", len(w), len(m.Automaton.Symbols()))
	}
	for sym, step := range w {
		pr := m.Alphabet[sym]
		ok, err := tr.HoldsAt(pr.Expr, step)
		if err != nil || !ok {
			t.Errorf("witness step %d for %q does not satisfy it (%v)", step, sym, err)
		}
	}
}

func TestPipelineSharedAlphabet(t *testing.T) {
	schema := trace.EventSchema()
	p := testPipeline(t, schema)
	m1, err := p.Learn(trace.FromEvents([]string{"x", "y", "x", "y", "x"}))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Learn(trace.FromEvents([]string{"y", "x", "y", "x", "y"}))
	if err != nil {
		t.Fatal(err)
	}
	for k := range m1.Alphabet {
		if _, ok := m2.Alphabet[k]; !ok {
			t.Errorf("alphabet diverged: %q missing from second model", k)
		}
	}
	if p.Generator() == nil {
		t.Error("nil generator")
	}
}

// walkCheck is the reference Check: a step-by-step walk of the
// abstracted predicate sequence, one transition per symbol.
func walkCheck(m *Model, P []string) *Violation {
	known := map[string]bool{}
	for _, sym := range m.Automaton.Symbols() {
		known[sym] = true
	}
	cur := m.Automaton.Initial()
	for i, sym := range P {
		succ := m.Automaton.Successors(cur, sym)
		if len(succ) == 0 {
			return &Violation{Position: i, Predicate: sym, KnownSymbol: known[sym], State: cur}
		}
		cur = succ[0]
	}
	return nil
}

// TestCheckMatchesWalk pins Check's run-skipping walk (whole
// self-loop runs are skipped in one step) to a symbol-by-symbol walk of
// m.Abstract(tr): position, predicate, known-symbol flag and state
// agree on a novel symbol, a known symbol in the wrong state, a
// violation right after a long self-loop run, and a conforming trace.
func TestCheckMatchesWalk(t *testing.T) {
	p := testPipeline(t, trace.EventSchema())
	var train []string
	for i := 0; i < 6; i++ {
		train = append(train, "idle", "idle", "idle", "idle", "req", "ack")
	}
	m, err := p.Learn(trace.FromEvents(train))
	if err != nil {
		t.Fatal(err)
	}
	idles := strings.Repeat("idle ", 40)
	cases := []struct {
		name  string
		evs   string
		ok    bool // conforming
		known bool // violating symbol occurs in the model
	}{
		{"novel", "idle idle foo idle", false, false},
		{"wrong-state", "idle idle req req idle", false, true},
		{"after-self-loop", idles + "ack idle", false, true},
		{"conforming", idles + "req ack idle idle req ack idle", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.FromEvents(strings.Fields(tc.evs))
			P, err := m.Abstract(tr)
			if err != nil {
				t.Fatal(err)
			}
			want := walkCheck(m, P)
			if (want == nil) != tc.ok || (want != nil && want.KnownSymbol != tc.known) {
				t.Fatalf("reference walk gives %v; the case does not exercise what it names", want)
			}
			got, err := m.Check(tr)
			if err != nil {
				t.Fatal(err)
			}
			if (got == nil) != (want == nil) || (got != nil && *got != *want) {
				t.Errorf("Check = %+v, walk = %+v", got, want)
			}
		})
	}
}
