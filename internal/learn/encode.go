package learn

import (
	"time"

	"repro/internal/automaton"
	"repro/internal/sat"
)

// encoding is the CNF form of the paper's automaton-existence
// hypothesis for a fixed state count N (Algorithm 1 lines 18–32).
//
// Variables:
//
//	slot[i][j][s]  — segment i is at automaton state s after j of its
//	                 transitions (the paper's q variables, one-hot
//	                 over 1..N);
//	t[s][p][s']    — the automaton has a transition from s to s' on
//	                 predicate p (the transition-function view that
//	                 makes the wrong_transition constraint and the
//	                 compliance blocking clauses linear to state).
//
// Clauses:
//
//	one-hot        — each slot holds exactly one state;
//	link           — a segment step from slot j to slot j+1 labelled p
//	                 implies t[s][p][s'] for the states the slots
//	                 hold (lines 21–27: the automaton includes every
//	                 segment as a transition sequence);
//	determinism    — at most one s' per (s, p): asserting
//	                 wrong_transition = false (lines 28–32);
//	anchor         — segment 0 (the prefix of P) starts at state 0,
//	                 fixing the initial state and breaking one
//	                 symmetry;
//	blocking       — for each invalid l-gram found by the compliance
//	                 check, no state path may realise it
//	                 (lines 43–45).
//
// A satisfying assignment is decoded into the automaton by reading its
// true t variables (extract). t variables are given a false preferred
// polarity so that raw models stay close to the transitions the
// segments witness; canonicalize then pins the lex-least relation.
//
// The encoding is incremental: blockGram and addSegment extend the
// live solver, which keeps its learned clauses across refinement
// rounds at a fixed state count.
type encoding struct {
	n       int // state count
	numSyms int
	solver  *sat.Solver

	segments [][]int
	anchored []bool

	slotVars [][][]int // [segment][slot][state]
	tVars    [][][]int // [state][symbol][state']

	// Symmetry-chain tail: maxGE variables of the last processed slot,
	// indexed s-1 for "some slot so far holds a state ≥ s". Nil until
	// the first slot when ordering is enabled, always nil otherwise.
	chainTail []int

	// prev is the solver work already folded into Stats (see addStats).
	prev sat.Stats
}

// newEncoding builds the hypothesis for n states over the given
// segments. Segments are added through the same addSegment used for
// live extension, so an encoding built with k segments is
// variable-for-variable identical to one built with fewer and extended
// afterwards.
func newEncoding(n, numSyms int, segments [][]int, anchored []bool, orderStates bool) *encoding {
	e := &encoding{n: n, numSyms: numSyms, solver: sat.New()}

	// Transition-function variables.
	e.tVars = make([][][]int, n)
	for s := 0; s < n; s++ {
		e.tVars[s] = make([][]int, numSyms)
		for p := 0; p < numSyms; p++ {
			e.tVars[s][p] = make([]int, n)
			for s2 := 0; s2 < n; s2++ {
				v := e.solver.NewVar()
				e.solver.SetPreferredPolarity(v, false)
				e.tVars[s][p][s2] = v
			}
		}
	}

	// Determinism: at most one successor per (state, predicate).
	for s := 0; s < n; s++ {
		for p := 0; p < numSyms; p++ {
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					e.solver.AddClause(sat.Neg(e.tVars[s][p][a]), sat.Neg(e.tVars[s][p][b]))
				}
			}
		}
	}

	if orderStates && n > 1 {
		e.chainTail = []int{} // non-nil: ordering enabled, no slot yet
	}

	for i := range segments {
		e.addSegment(segments[i], anchored[i])
	}
	return e
}

// addSegment appends one segment to the live encoding: slot variables
// with one-hot constraints, the anchor when the segment is a sequence
// prefix, link clauses tying the slots to the transition function, and
// the extension of the state-ordering symmetry chain. Deduplication is
// the caller's job.
func (e *encoding) addSegment(seg []int, anchor bool) {
	e.segments = append(e.segments, append([]int(nil), seg...))
	e.anchored = append(e.anchored, anchor)

	slots := make([][]int, len(seg)+1)
	for j := range slots {
		states := make([]int, e.n)
		for s := 0; s < e.n; s++ {
			states[s] = e.solver.NewVar()
		}
		slots[j] = states
		// At least one state.
		lits := make([]sat.Lit, e.n)
		for s := 0; s < e.n; s++ {
			lits[s] = sat.Pos(states[s])
		}
		e.solver.AddClause(lits...)
		// At most one state.
		for a := 0; a < e.n; a++ {
			for b := a + 1; b < e.n; b++ {
				e.solver.AddClause(sat.Neg(states[a]), sat.Neg(states[b]))
			}
		}
	}
	e.slotVars = append(e.slotVars, slots)

	// Anchor: segments that are prefixes of P start at the initial
	// state, pinned to 0 (this includes segment 0, the w-prefix, and
	// any acceptance-refinement windows reaching back to position 0).
	if anchor {
		e.solver.AddClause(sat.Pos(slots[0][0]))
	}

	// Link clauses.
	for j, p := range seg {
		from := slots[j]
		to := slots[j+1]
		for s := 0; s < e.n; s++ {
			for s2 := 0; s2 < e.n; s2++ {
				e.solver.AddClause(
					sat.Neg(from[s]), sat.Neg(to[s2]), sat.Pos(e.tVars[s][p][s2]))
			}
		}
	}

	// Symmetry breaking: states must be first used in slot order — a
	// slot may hold state t > 0 only if some earlier slot (in
	// segment-major order) already holds state t−1 or higher. Every
	// automaton has exactly one such labelling, so this prunes the
	// (N−1)! relabellings that otherwise bloat the UNSAT escalation
	// proofs. maxGE[j][s] means "some slot ≤ j holds a state ≥ s"; the
	// chain threads across addSegment calls through chainTail.
	if e.chainTail != nil {
		prev := e.chainTail
		first := len(prev) == 0
		for j := range slots {
			states := slots[j]
			cur := make([]int, e.n-1)
			for s := 1; s < e.n; s++ {
				v := e.solver.NewVar()
				e.solver.SetPreferredPolarity(v, false)
				cur[s-1] = v
				// y[j][t] → maxGE[j][s] for t ≥ s.
				for t := s; t < e.n; t++ {
					e.solver.AddClause(sat.Neg(states[t]), sat.Pos(v))
				}
				if !first {
					// Monotone in j.
					e.solver.AddClause(sat.Neg(prev[s-1]), sat.Pos(v))
				}
			}
			// y[j][t] allowed only if maxGE[j-1][t-1] (t ≥ 1); the
			// very first slot may only hold state 0.
			for t := 1; t < e.n; t++ {
				if first {
					e.solver.AddClause(sat.Neg(states[t]))
				} else {
					e.solver.AddClause(sat.Neg(states[t]), sat.Pos(prev[t-1]))
				}
			}
			prev = cur
			first = false
		}
		e.chainTail = prev
	}
}

// anchorSegment upgrades segment i to anchored: its first slot is
// pinned to the initial state. A no-op when already anchored.
func (e *encoding) anchorSegment(i int) {
	if e.anchored[i] {
		return
	}
	e.anchored[i] = true
	e.solver.AddClause(sat.Pos(e.slotVars[i][0][0]))
}

// blockGram forbids every state path realising the symbol-id word g:
// for all state paths s0..sl, at least one of the involved transitions
// must be absent.
func (e *encoding) blockGram(g []int) {
	l := len(g)
	path := make([]int, l+1)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == l+1 {
			lits := make([]sat.Lit, l)
			for k := 0; k < l; k++ {
				lits[k] = sat.Neg(e.tVars[path[k]][g[k]][path[k+1]])
			}
			e.solver.AddClause(lits...)
			return
		}
		for s := 0; s < e.n; s++ {
			path[depth] = s
			rec(depth + 1)
		}
	}
	rec(0)
}

// solveChunkConflicts is the conflict budget per solver call when a
// deadline is in force; a variable so tests can shrink it to pin
// mid-solve behaviour deterministically.
var solveChunkConflicts int64 = 20000

// solve runs the SAT solver. With no deadline it runs unbounded;
// otherwise it solves in conflict-budget chunks so that a single hard
// instance cannot overshoot a timeout unboundedly. It returns Sat,
// Unsat, or Unknown when the deadline expired mid-solve.
func (e *encoding) solve(deadline time.Time) sat.Status {
	if deadline.IsZero() {
		e.solver.MaxConflicts = 0
		return e.solver.Solve()
	}
	e.solver.MaxConflicts = solveChunkConflicts
	for {
		st := e.solver.Solve()
		if st != sat.Unknown || time.Now().After(deadline) {
			return st
		}
	}
}

// addStats folds the solver work done since the previous call —
// the round's solve plus any canonicalisation probes before it — into
// st, and returns it.
func (e *encoding) addStats(st *Stats) sat.Stats {
	d := e.solver.Stats.Minus(e.prev)
	e.prev = e.solver.Stats
	st.SATConflicts += d.Conflicts
	st.SATDecisions += d.Decisions
	st.SATPropagations += d.Propagations
	st.SATLearned += d.Learned
	return d
}

// canonicalize pins the solver's model to the canonical one: the
// lexicographically least transition relation (in state, symbol,
// successor order) consistent with the current constraints. It walks
// the transition variables in that order with a witness — a model that
// satisfies every fix made so far. A variable the witness sets false is
// fixed false without a solve. A variable it sets true is probed with
// one incremental assumption solve: Sat fixes it false and the probe's
// model becomes the witness; Unsat fixes it true and keeps the witness,
// which already sets it true and satisfies every earlier fix. This is
// the greedy lex-min rule — a variable is fixed false exactly when some
// model satisfies all earlier fixes with it false — so the resulting
// projection is a function of the constraint set alone, independent of
// learned clauses, activity scores, saved phases or chunking. The solver must be in a Sat state; it
// is left in a Sat state whose model realises the canonical relation,
// which takes one closing solve under all the fixes when the last probe
// was Unsat. It returns the probe count, how many probes were Unsat,
// and the solver calls made in total (probes plus that closing solve).
func (e *encoding) canonicalize() (probes, unsat, solves int) {
	e.solver.MaxConflicts = 0
	var fixed []sat.Lit
	witness := e.transitionValues(nil)
	lastUnsat := false
	i := 0
	for s := 0; s < e.n; s++ {
		for p := 0; p < e.numSyms; p++ {
			for s2 := 0; s2 < e.n; s2++ {
				v := e.tVars[s][p][s2]
				w := witness[i]
				i++
				if !w {
					fixed = append(fixed, sat.Neg(v))
					continue
				}
				probes++
				lastUnsat = e.solver.SolveAssuming(append(fixed, sat.Neg(v))...) != sat.Sat
				if lastUnsat {
					unsat++
					fixed = append(fixed, sat.Pos(v))
					continue
				}
				fixed = append(fixed, sat.Neg(v))
				witness = e.transitionValues(witness)
			}
		}
	}
	solves = probes
	if lastUnsat {
		// The witness satisfies every fix, so this must succeed.
		solves++
		if e.solver.SolveAssuming(fixed...) != sat.Sat {
			panic("learn: canonicalize lost satisfiability")
		}
	}
	return probes, unsat, solves
}

// transitionValues copies the solver's model of the transition
// variables over the first n states, in (state, symbol, successor)
// order, into buf (reallocated when too small).
func (e *encoding) transitionValues(buf []bool) []bool {
	buf = buf[:0]
	for s := 0; s < e.n; s++ {
		for p := 0; p < e.numSyms; p++ {
			for s2 := 0; s2 < e.n; s2++ {
				buf = append(buf, e.solver.Value(e.tVars[s][p][s2]))
			}
		}
	}
	return buf
}

// extract decodes the model into an NFA over the symbol names: the
// automaton's transition relation is exactly the set of true
// transition variables. After canonicalize that relation is the
// canonical one; on a raw round model it is whatever the solver found.
// The solver must be in a Sat state.
func (e *encoding) extract(symbols []string) *automaton.NFA {
	m := automaton.MustNew(e.n, 0)
	for s := 0; s < e.n; s++ {
		for p := 0; p < e.numSyms; p++ {
			for s2 := 0; s2 < e.n; s2++ {
				if e.solver.Value(e.tVars[s][p][s2]) {
					m.MustAddTransition(automaton.State(s), symbols[p], automaton.State(s2))
				}
			}
		}
	}
	return m
}
