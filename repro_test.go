package repro_test

import (
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/expr"
	"repro/internal/trace"
)

func TestLearnEventsQuickstart(t *testing.T) {
	var events []string
	for i := 0; i < 5; i++ {
		events = append(events, "open", "read", "read", "close")
	}
	m, err := repro.LearnEvents(events, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.States < 2 || m.States > 4 {
		t.Errorf("states = %d, want a small cycle", m.States)
	}
	if !m.Automaton.IsDeterministic() {
		t.Error("not deterministic")
	}
	if len(m.Alphabet) != 3 {
		t.Errorf("alphabet = %d, want 3 event guards", len(m.Alphabet))
	}
}

func TestLearnValidation(t *testing.T) {
	if _, err := repro.Learn(nil, repro.LearnOptions{}); err == nil {
		t.Error("nil trace accepted")
	}
	short := trace.FromEvents([]string{"a"})
	if _, err := repro.Learn(short, repro.LearnOptions{}); err == nil {
		t.Error("1-observation trace accepted")
	}
	if _, err := repro.NewPipeline(nil, repro.LearnOptions{}); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestLearnNumericCounter(t *testing.T) {
	schema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	tr := trace.New(schema)
	x, dir := int64(1), int64(1)
	for i := 0; i < 60; i++ {
		tr.MustAppend(trace.Observation{expr.IntVal(x)})
		if x >= 6 {
			dir = -1
		} else if x <= 1 {
			dir = 1
		}
		x += dir
	}
	m, err := repro.Learn(tr, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Alphabet["x' = x + 1"]; !ok {
		t.Errorf("alphabet missing x' = x + 1: %v", m.Automaton.Symbols())
	}
	if _, ok := m.Alphabet["x' = x - 1"]; !ok {
		t.Errorf("alphabet missing x' = x - 1: %v", m.Automaton.Symbols())
	}
	if m.States != 4 {
		t.Errorf("states = %d, want 4 (Fig 5 shape)", m.States)
	}
}

func TestTimeoutSurfaces(t *testing.T) {
	var events []string
	for i := 0; i < 3000; i++ {
		events = append(events, []string{"a", "b", "c", "d"}[i%4], []string{"w", "x", "y", "z"}[(i/3)%4])
	}
	_, err := repro.Learn(trace.FromEvents(events), repro.LearnOptions{
		NonSegmented: true,
		Timeout:      time.Millisecond,
	})
	if !errors.Is(err, repro.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestMonitoringCheck(t *testing.T) {
	// Learn a model of an a-b protocol, then check a conforming and
	// a violating trace.
	var good []string
	for i := 0; i < 20; i++ {
		good = append(good, "req", "ack")
	}
	p, err := repro.NewPipeline(trace.EventSchema(), repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Learn(trace.FromEvents(good))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Check(trace.FromEvents([]string{"req", "ack", "req", "ack"}))
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("conforming trace flagged: %v", v)
	}
	// Double request: known symbol, wrong context.
	v, err = m.Check(trace.FromEvents([]string{"req", "ack", "req", "req", "ack"}))
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("double request not flagged")
	}
	if !v.KnownSymbol {
		t.Errorf("double request should be a known symbol in a bad context: %+v", v)
	}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
	// Entirely novel event (mid-trace: a trace-final event is only
	// ever observed as a primed value and does not form a symbol).
	v, err = m.Check(trace.FromEvents([]string{"req", "nak", "ack"}))
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.KnownSymbol {
		t.Errorf("novel event not flagged as novel: %+v", v)
	}
}

func TestExplainWitnesses(t *testing.T) {
	tr := trace.FromEvents([]string{"a", "b", "a", "b", "a"})
	p, err := repro.NewPipeline(trace.EventSchema(), repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Learn(tr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.Explain(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range m.Automaton.Symbols() {
		if _, ok := w[sym]; !ok {
			t.Errorf("no witness for %q", sym)
		}
	}
}

func TestBaselines(t *testing.T) {
	var word []string
	for i := 0; i < 30; i++ {
		word = append(word, []string{"a", "b", "c"}[i%3])
	}
	for _, b := range []repro.Baseline{repro.KTails, repro.EDSM, repro.MINT} {
		res, err := repro.LearnBaseline(b, [][]string{word}, repro.BaselineOptions{})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !res.Automaton.Accepts(word) {
			t.Errorf("%s rejects training word", b)
		}
		if res.States == 0 || res.Duration <= 0 {
			t.Errorf("%s: empty result %+v", b, res)
		}
	}
	if _, err := repro.LearnBaseline(repro.Baseline(99), nil, repro.BaselineOptions{}); err == nil {
		t.Error("unknown baseline accepted")
	}
	if repro.KTails.String() != "ktails" || repro.EDSM.String() != "edsm" || repro.MINT.String() != "mint" {
		t.Error("baseline names wrong")
	}
}

func TestBaselineTimeout(t *testing.T) {
	word := make([]string, 20000)
	for i := range word {
		word[i] = string(rune('a' + i%8))
	}
	_, err := repro.LearnBaseline(repro.EDSM, [][]string{word}, repro.BaselineOptions{Timeout: time.Microsecond})
	if !errors.Is(err, repro.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestTokenize(t *testing.T) {
	// Event trace tokenizes to its events.
	evs := repro.Tokenize(trace.FromEvents([]string{"a", "b"}))
	if len(evs) != 2 || evs[0] != "a" {
		t.Errorf("Tokenize(events) = %v", evs)
	}
	// Mixed trace tokenizes to tuple tokens.
	schema := trace.MustSchema(
		trace.VarDef{Name: "ev", Type: expr.Sym},
		trace.VarDef{Name: "x", Type: expr.Int},
	)
	tr := trace.New(schema)
	tr.MustAppend(trace.Observation{expr.SymVal("read"), expr.IntVal(3)})
	toks := repro.Tokenize(tr)
	if len(toks) != 1 || toks[0] != "ev=read,x=3" {
		t.Errorf("Tokenize(mixed) = %v", toks)
	}
}

func TestConsistentAlphabetAcrossTraces(t *testing.T) {
	// Two traces of the same system through one pipeline share
	// predicate text.
	schema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	mk := func(start int64, n int) *trace.Trace {
		tr := trace.New(schema)
		for i := 0; i < n; i++ {
			tr.MustAppend(trace.Observation{expr.IntVal(start + int64(i))})
		}
		return tr
	}
	p, err := repro.NewPipeline(schema, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := p.Learn(mk(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Learn(mk(100, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Alphabet) != 1 || len(m2.Alphabet) < 1 {
		t.Fatalf("alphabets: %v, %v", m1.Alphabet, m2.Alphabet)
	}
	P1, err := m1.Abstract(mk(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	P2, err := m2.Abstract(mk(100, 12))
	if err != nil {
		t.Fatal(err)
	}
	if P1[0] != P2[0] {
		t.Errorf("alphabet inconsistent across traces: %q vs %q", P1[0], P2[0])
	}
}

func TestLearnTraces(t *testing.T) {
	mk := func(evs ...string) *trace.Trace { return trace.FromEvents(evs) }
	t1 := mk("req", "ack", "req", "ack", "req", "ack")
	t2 := mk("req", "nak", "req", "ack", "req", "nak", "req", "ack")
	m, err := repro.LearnTraces([]*repro.Trace{t1, t2}, repro.LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Model explains both runs.
	for i, tr := range []*trace.Trace{t1, t2} {
		v, err := m.Check(tr)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			t.Errorf("run %d flagged: %v", i, v)
		}
	}
	if _, err := repro.LearnTraces(nil, repro.LearnOptions{}); err == nil {
		t.Error("no traces accepted")
	}
	if _, err := repro.LearnTraces([]*repro.Trace{mk("a")}, repro.LearnOptions{}); err == nil {
		t.Error("short trace accepted")
	}
}
