package experiments

import (
	"strings"
	"testing"
	"time"

	"repro"
)

func TestCasesWellFormed(t *testing.T) {
	cases := Cases()
	if len(cases) != 6 {
		t.Fatalf("cases = %d, want 6", len(cases))
	}
	for _, c := range cases {
		tr, err := c.Generate()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if tr.Len() != c.PaperTraceLen {
			t.Errorf("%s: trace length %d, want %d (paper Table I)", c.Name, tr.Len(), c.PaperTraceLen)
		}
		// Generators are deterministic.
		tr2, err := c.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if tr2.Len() != tr.Len() {
			t.Errorf("%s: nondeterministic generator", c.Name)
		}
	}
	if _, err := CaseByName("nope"); err == nil {
		t.Error("unknown case accepted")
	}
}

// TestLearnedStateCounts checks the headline reproduction: every
// benchmark learns a concise model within one state of the paper's
// count.
func TestLearnedStateCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range Cases() {
		c := c
		t.Run(strings.ReplaceAll(c.Name, " ", ""), func(t *testing.T) {
			t.Parallel()
			m, err := LearnCase(c, 2*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			diff := m.States - c.PaperStates
			if diff < -1 || diff > 1 {
				t.Errorf("%s: learned %d states, paper reports %d (tolerance ±1)\n%s",
					c.Name, m.States, c.PaperStates, m.Automaton)
			}
			if !m.Automaton.IsDeterministic() {
				t.Errorf("%s: nondeterministic model", c.Name)
			}
		})
	}
}

func TestTable1SmallCases(t *testing.T) {
	cases := Cases()[:2] // USB Slot, USB Attach
	rows, err := Table1(cases, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SegmentedTime <= 0 {
			t.Errorf("%s: zero segmented time", r.Name)
		}
		if !r.FullTimedOut && r.FullTime <= 0 {
			t.Errorf("%s: zero full time", r.Name)
		}
	}
}

func TestTable2SmallCases(t *testing.T) {
	cases := Cases()[:1]
	rows, err := Table2(cases, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.MergeTimedOut || r.MergeStates == 0 {
		t.Errorf("merge failed: %+v", r)
	}
	if r.LearnStates == 0 {
		t.Errorf("learn failed: %+v", r)
	}
	// The headline claim: the learned model is no larger than the
	// state-merge model.
	if r.LearnStates > r.MergeStates {
		t.Errorf("learned %d states > merge %d states", r.LearnStates, r.MergeStates)
	}
}

func TestFig7SmallLengths(t *testing.T) {
	points, err := Fig7([]int{64, 128}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.SegmentedTime <= 0 {
			t.Errorf("len %d: zero segmented time", p.TraceLen)
		}
	}
}

func TestAblationWindowAgrees(t *testing.T) {
	c, err := CaseByName("Counter")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblationWindow(c, []int{2, 3, 4}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[1:] {
		if r.States != rows[0].States {
			t.Errorf("w=%d gives %d states, w=%d gives %d — §III-C expects agreement",
				rows[0].Window, rows[0].States, r.Window, r.States)
		}
	}
}

func TestAblationCompliance(t *testing.T) {
	c, err := CaseByName("USB Slot")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblationCompliance(c, []int{1, 2}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Looser compliance (l=1) can only need fewer or equal states.
	if rows[0].States > rows[1].States {
		t.Errorf("l=1 gives %d states > l=2 gives %d", rows[0].States, rows[1].States)
	}
}

func TestSynthStyles(t *testing.T) {
	rows, err := SynthStyles()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §VII example: x + x, not an ite chain. The point
	// is generalisation: the minimal expression extrapolates, the
	// trivial chain memorises (its size also grows with the example
	// count, while minimal stays put — compare rows 0 and 1, which
	// have three examples each).
	if rows[0].MinimalExpr != "x + x" {
		t.Errorf("doubling minimal = %q, want x + x", rows[0].MinimalExpr)
	}
	if !strings.Contains(rows[0].TrivialExpr, "ite(") {
		t.Errorf("doubling trivial = %q, want an ite chain", rows[0].TrivialExpr)
	}
	for _, r := range rows[:2] {
		if r.MinimalSize > r.TrivialSize {
			t.Errorf("%s: minimal (%d) larger than trivial (%d)", r.Name, r.MinimalSize, r.TrivialSize)
		}
	}
}

func TestSlotCoverage(t *testing.T) {
	c, err := CaseByName("USB Slot")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LearnCase(c, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rep := SlotCoverage(m)
	if len(rep.Exercised) != 6 {
		t.Errorf("exercised = %v, want 6 commands", rep.Exercised)
	}
	// BSR=1 addressing is never exercised — the paper's coverage
	// observation.
	found := false
	for _, cmd := range rep.Missing {
		if cmd == "CR_ADDR_DEV_BSR1" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing = %v, want CR_ADDR_DEV_BSR1", rep.Missing)
	}
}

func TestModelsAcceptTheirTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range Cases()[:4] {
		m, err := LearnCase(c, time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		tr, err := c.Generate()
		if err != nil {
			t.Fatal(err)
		}
		P, err := m.Abstract(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Automaton.Accepts(P) {
			t.Errorf("%s: model rejects its own predicate sequence", c.Name)
		}
	}
	_ = repro.LearnOptions{}
}

func TestCheckProperties(t *testing.T) {
	rows, err := CheckProperties()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("only %d properties checked", len(rows))
	}
	for _, r := range rows {
		if r.Holds != r.Expected {
			t.Errorf("%s", r.Describe())
		}
	}
}

// TestLearnedModelsAreLanguageMinimal cross-checks the learner's
// minimality with the automaton-theoretic minimizer: minimizing a
// learned model must not shrink it much (the SAT search already
// returns the smallest N admitting the constraints; Minimize can
// merge language-equivalent states the constraint semantics keeps
// apart, so equality is not guaranteed — but a large gap would flag a
// search bug).
func TestLearnedModelsAreLanguageMinimal(t *testing.T) {
	for _, name := range []string{"USB Slot", "Counter"} {
		c, err := CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := LearnCase(c, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		min, err := m.Automaton.Minimize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if min.NumStates() < m.States-1 {
			t.Errorf("%s: learned %d states but minimizes to %d", name, m.States, min.NumStates())
		}
	}
}
