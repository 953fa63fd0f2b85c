package learn

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/sat"
	"repro/internal/systems"
	"repro/internal/systems/integrator"
	"repro/internal/systems/rtlinux"
	"repro/internal/trace"
)

// lexLess orders transition relations as canonicalize does: variable
// by variable in (state, symbol, successor) order, false before true.
func lexLess(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return !a[i]
		}
	}
	return false
}

// randomEncoding builds a small encoding from a seeded description, so
// two calls with equal seeds build identical formulas.
func randomEncoding(seed int64) *encoding {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][2]int{{2, 2}, {2, 3}, {3, 2}} // (states, symbols)
	shape := shapes[rng.Intn(len(shapes))]
	n, numSyms := shape[0], shape[1]
	var segments [][]int
	var anchored []bool
	for i := 1 + rng.Intn(3); i > 0; i-- {
		seg := make([]int, 3)
		for j := range seg {
			seg[j] = rng.Intn(numSyms)
		}
		segments = append(segments, seg)
		anchored = append(anchored, len(anchored) == 0)
	}
	e := newEncoding(n, numSyms, segments, anchored, true)
	for i := rng.Intn(3); i > 0; i-- {
		e.blockGram([]int{rng.Intn(numSyms), rng.Intn(numSyms)})
	}
	return e
}

// TestCanonicalizeLexLeast enumerates every satisfying transition
// relation of small encodings, by blocking each one found and solving
// again, and checks that canonicalize lands on the lex-least one and
// leaves the solver's model on it. Encodings with more than
// maxRelations relations are skipped to bound the enumeration. The
// cases cover both endings: a last probe that is Sat, and a last probe
// that is Unsat, which needs the closing solve.
func TestCanonicalizeLexLeast(t *testing.T) {
	const maxRelations = 200
	endings := map[bool]int{} // last probe Unsat → cases
	for seed := int64(0); seed < 300; seed++ {
		enum := randomEncoding(seed)
		var least []bool
		models := 0
		for models <= maxRelations && enum.solver.Solve() == sat.Sat {
			vals := enum.transitionValues(nil)
			if least == nil || lexLess(vals, least) {
				least = vals
			}
			block := make([]sat.Lit, 0, len(vals))
			i := 0
			for s := 0; s < enum.n; s++ {
				for p := 0; p < enum.numSyms; p++ {
					for s2 := 0; s2 < enum.n; s2++ {
						v := enum.tVars[s][p][s2]
						if vals[i] {
							block = append(block, sat.Neg(v))
						} else {
							block = append(block, sat.Pos(v))
						}
						i++
					}
				}
			}
			enum.solver.AddClause(block...)
			models++
		}
		if models > maxRelations {
			continue
		}
		e := randomEncoding(seed)
		if st := e.solve(time.Time{}); (st == sat.Sat) != (least != nil) {
			t.Fatalf("seed %d: solve says %v, enumeration found %d relations", seed, st, models)
		}
		if least == nil {
			continue
		}
		probes, unsat, solves := e.canonicalize()
		if got := e.transitionValues(nil); !slices.Equal(got, least) {
			t.Fatalf("seed %d: canonical relation %v, lex-least of %d is %v", seed, got, models, least)
		}
		if unsat > probes || (solves != probes && solves != probes+1) {
			t.Fatalf("seed %d: probes=%d unsat=%d solves=%d", seed, probes, unsat, solves)
		}
		endings[solves == probes+1]++
	}
	if endings[true] == 0 || endings[false] == 0 {
		t.Fatalf("cases by last-probe Unsat: %v; want both endings covered", endings)
	}
}

// refLearn is the refinement loop that canonicalises after every Sat
// round, kept as a test oracle: one sequence, segmented, one solver per
// state count, and compliance always checked on the canonical model.
// GenerateModelSeqs canonicalises only compliant candidates; DESIGN
// note 11 argues the two learn the same automaton.
func refLearn(t *testing.T, P []string, w, l int) *automaton.NFA {
	t.Helper()
	seq := seqOf(P)
	rs := &rleSeq{ids: seq.ids, counts: seq.counts, total: seq.total}
	var segments [][]int
	var anchored []bool
	index := map[string]int{}
	record := func(win []int32, anchor bool) (idx int, added, anchorUp bool) {
		seg := make([]int, len(win))
		for i, x := range win {
			seg[i] = int(x)
		}
		key := intsKey(seg)
		if i, ok := index[key]; ok {
			if anchor && !anchored[i] {
				anchored[i] = true
				return i, false, true
			}
			return i, false, false
		}
		index[key] = len(segments)
		segments = append(segments, seg)
		anchored = append(anchored, anchor)
		return len(segments) - 1, true, false
	}
	if w > rs.total {
		w = rs.total
	}
	rs.windows(w, func(pos int, win []int32) { record(win, pos == 0) })
	validGrams := map[string]bool{}
	rs.windows(l, func(_ int, win []int32) { validGrams[string(appendIntsKey32(nil, win))] = true })

	var blocked [][]int
	acceptWindow := 2 * w
	for n := 2; n <= 64; n++ {
		e := newEncoding(n, len(seq.syms), segments, anchored, true)
		for _, g := range blocked {
			e.blockGram(g)
		}
		for e.solve(time.Time{}) == sat.Sat {
			e.canonicalize()
			m := e.extract(seq.syms)
			if invalid := invalidSequences(m, validGrams, seq.symID, l); len(invalid) > 0 {
				for _, g := range invalid {
					blocked = append(blocked, g)
					e.blockGram(g)
				}
				continue
			}
			k := rs.firstReject(m, seq.syms)
			if k < 0 {
				return m
			}
			var idx int
			var added, anchorUp bool
			for {
				lo := max(k+1-acceptWindow, 0)
				if idx, added, anchorUp = record(rs.expand(lo, k+1), lo == 0); added || anchorUp {
					break
				}
				if acceptWindow > 2*rs.total {
					t.Fatalf("reference: acceptance refinement stuck at %d", k)
				}
				acceptWindow *= 2
			}
			if added {
				e.addSegment(segments[idx], anchored[idx])
			} else {
				e.anchorSegment(idx)
			}
		}
	}
	t.Fatal("reference: no automaton within 64 states")
	return nil
}

// systemWords abstracts each benchmark system's canonical trace into
// its predicate sequence, as internal/core does before learning.
func systemWords(t *testing.T) map[string][]string {
	t.Helper()
	traces := map[string]*trace.Trace{}
	for _, name := range []string{"counter", "serial", "fifo"} {
		sys, err := systems.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if traces[name], err = systems.DriveSchedule(sys, 0, systems.CanonicalObservations(name)); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if traces["integrator"], err = integrator.DefaultConfig().Run(); err != nil {
		t.Fatal(err)
	}
	sim, err := rtlinux.New(rtlinux.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if traces["rtlinux"], err = sim.Run(); err != nil {
		t.Fatal(err)
	}
	words := map[string][]string{}
	for name, tr := range traces {
		g, err := predicate.NewGenerator(tr.Schema(), predicate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		preds, err := g.Sequence(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range preds {
			words[name] = append(words[name], p.Key)
		}
	}
	return words
}

// TestCompliantOnlyMatchesEveryRoundReference pins the compliant-only
// canonicalisation against the every-round reference loop: on the
// benchmark systems' predicate sequences and the property-test words,
// GenerateModelSeqs learns the reference's automaton, and so does a
// Live learner at every point where its model changes. Effort
// statistics differ by design and are not compared. The loops are
// serial, so under the race detector only the property words run.
func TestCompliantOnlyMatchesEveryRoundReference(t *testing.T) {
	words := map[string][]string{}
	if !raceEnabled {
		words = systemWords(t)
	}
	for i, P := range propertySequences() {
		words[fmt.Sprintf("property%d", i)] = P
	}
	opts := Options{Segmented: true}
	for name, P := range words {
		ref := refLearn(t, P, 3, 2).String()
		res, err := GenerateModelSeqs([]*Seq{seqOf(P)}, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Automaton.String(); got != ref {
			t.Fatalf("%s: batch model differs from the reference:\nbatch:\n%s\nreference:\n%s", name, got, ref)
		}

		// Live: revise whenever there is new evidence or the model
		// rejects the grown sequence, and check each new version (a
		// revision whose model differs from the last one).
		lv, err := NewLive(opts)
		if err != nil {
			t.Fatal(err)
		}
		var cur automaton.State
		version := ""
		versions := 0
		for i, sym := range P {
			lv.Append(sym, 1)
			if !lv.Ready() {
				continue
			}
			if m := lv.Model(); m != nil && !lv.Dirty() {
				if succ := m.Successors(cur, sym); len(succ) > 0 {
					cur = succ[0]
					continue
				}
			}
			if _, err := lv.Revise(false); err != nil {
				t.Fatalf("%s[:%d]: Revise: %v", name, i+1, err)
			}
			cur, _ = lv.Walk()
			if got := lv.Model().String(); got != version {
				version = got
				versions++
				if want := refLearn(t, P[:i+1], 3, 2).String(); got != want {
					t.Fatalf("%s[:%d]: live model differs from the reference:\nlive:\n%s\nreference:\n%s",
						name, i+1, got, want)
				}
			}
		}
		if versions == 0 || version != ref {
			t.Fatalf("%s: live ended after %d versions on a model other than the reference", name, versions)
		}
	}
}

// TestCanonSolvesCounted: canonicalisation solves are counted apart
// from the refinement-round solves, in the stats, the registry and one
// trace span per canonicalisation, by the batch search and by Live.
func TestCanonSolvesCounted(t *testing.T) {
	var word []string
	for i := 0; i < 8; i++ {
		word = append(word, "send", "ack", "send", "ack", "timeout")
	}
	var buf bytes.Buffer
	tel := &pipeline.Telemetry{Tracer: pipeline.NewTracer(&buf), Registry: pipeline.NewRegistry()}
	opts := Options{Segmented: true, Telemetry: tel}
	res, err := GenerateModelSeqs([]*Seq{seqOf(word)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := NewLive(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range word[:len(word)/2] {
		lv.Append(sym, 1)
	}
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}
	for _, sym := range word[len(word)/2:] {
		lv.Append(sym, 1)
	}
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}
	if err := tel.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	total := res.Stats.CanonSolves + lv.Stats().CanonSolves
	if res.Stats.CanonSolves == 0 || lv.Stats().CanonSolves == 0 {
		t.Fatalf("CanonSolves batch=%d live=%d, want both > 0", res.Stats.CanonSolves, lv.Stats().CanonSolves)
	}
	if got := tel.Registry.Counter("solver_canon_solves_total").Value(); got != int64(total) {
		t.Fatalf("solver_canon_solves_total = %d, stats say %d", got, total)
	}
	canonIDs := map[uint64]bool{}
	spans, probes := 0, int64(0)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			T     string           `json:"t"`
			ID    uint64           `json:"id"`
			Name  string           `json:"name"`
			Attrs map[string]int64 `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			continue // lines with non-integer attrs
		}
		switch {
		case line.T == "start" && line.Name == "canonicalize":
			canonIDs[line.ID] = true
		case line.T == "end" && canonIDs[line.ID]:
			spans++
			probes += line.Attrs["probes"]
			if _, ok := line.Attrs["unsat"]; !ok {
				t.Fatalf("canonicalize span without an unsat attr: %s", sc.Text())
			}
		}
	}
	if spans == 0 || probes == 0 || probes > int64(total) {
		t.Fatalf("%d canonicalize spans with %d probes; %d canonicalisation solves counted", spans, probes, total)
	}
}

// TestLiveExtendAccountsTime: an extension's wall and CPU time count
// towards Live.Stats whether it succeeds or fails.
func TestLiveExtendAccountsTime(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lv, err := NewLive(Options{Segmented: true, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	// Every 2-gram over {a, b} is valid from the start, so growth adds
	// segments but never a symbol or a newly valid gram: Revise extends.
	grow := func(syms ...string) {
		for _, s := range syms {
			lv.Append(s, 1)
		}
	}
	grow("a", "a", "b", "b", "a", "b")
	if _, err := lv.Revise(false); err != nil {
		t.Fatal(err)
	}

	grow("a", "a", "a")
	before := lv.Stats()
	remin, err := lv.Revise(false)
	if err != nil || remin {
		t.Fatalf("Revise = %v, %v; want an extension", remin, err)
	}
	after := lv.Stats()
	if after.SolverCalls == before.SolverCalls {
		t.Fatal("extension made no solver call")
	}
	if after.Duration <= before.Duration || after.CPU <= before.CPU {
		t.Fatalf("successful extension: Duration %v → %v, CPU %v → %v; want both to grow",
			before.Duration, after.Duration, before.CPU, after.CPU)
	}

	grow("b", "b", "b")
	cancel()
	before = lv.Stats()
	if _, err := lv.Revise(false); err == nil {
		t.Fatal("Revise under a cancelled context succeeded")
	}
	if after := lv.Stats(); after.Duration <= before.Duration {
		t.Fatalf("failed extension: Duration %v → %v; want it to grow", before.Duration, after.Duration)
	}
}
