package predicate

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Sequence and SequenceSource share one window loop, so over the same
// observations they must agree bit-for-bit: same predicates, same
// interning (pointer equality), same seed-pool evolution, same stats,
// same first error. The tests below check that over fixed and
// randomized traces of every schema shape the generator supports.

// expand flattens a run stream back into the per-window sequence.
func expand(runs []Run) []*Predicate {
	var out []*Predicate
	for _, r := range runs {
		for i := 0; i < r.Count; i++ {
			out = append(out, r.Pred)
		}
	}
	return out
}

// mixedTrace is a small trace exercising memo hits, seed reuse and the
// wrap fallback: a mod-4 counter with an event variable.
func mixedTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	schema := trace.MustSchema(
		trace.VarDef{Name: "count", Type: expr.Int},
		trace.VarDef{Name: "event", Type: expr.Sym},
	)
	tr := trace.New(schema)
	for i := 0; i < n; i++ {
		ev := "tick"
		if i%4 == 3 {
			ev = "wrap"
		}
		tr.MustAppend(trace.Observation{expr.IntVal(int64(i % 4)), expr.SymVal(ev)})
	}
	return tr
}

type schemaGen struct {
	name   string
	schema *trace.Schema
	step   func(rng *rand.Rand, tr *trace.Trace, i int)
}

func schemaGens() []schemaGen {
	intSchema := trace.MustSchema(trace.VarDef{Name: "x", Type: expr.Int})
	eventSchema := trace.MustSchema(trace.VarDef{Name: "event", Type: expr.Sym})
	mixedSchema := trace.MustSchema(
		trace.VarDef{Name: "event", Type: expr.Sym},
		trace.VarDef{Name: "x", Type: expr.Int},
	)
	boolSchema := trace.MustSchema(
		trace.VarDef{Name: "b", Type: expr.Bool, Role: trace.Input},
		trace.VarDef{Name: "x", Type: expr.Int},
	)
	return []schemaGen{
		{
			// Random walk with repeating ±1 runs: memo hits, seed
			// reuse, and turning-point windows.
			name: "int", schema: intSchema,
			step: func(rng *rand.Rand, tr *trace.Trace, i int) {
				var x int64
				if i > 0 {
					x = tr.At(i - 1)[0].I
				}
				switch rng.Intn(6) {
				case 0:
					x = int64(rng.Intn(5))
				case 1, 2:
					x++
				case 3, 4:
					x--
				}
				tr.MustAppend(trace.Observation{expr.IntVal(x)})
			},
		},
		{
			// Pure event trace: guards only, no synthesis.
			name: "events", schema: eventSchema,
			step: func(rng *rand.Rand, tr *trace.Trace, i int) {
				evs := []string{"open", "read", "write", "close"}
				tr.MustAppend(trace.Observation{expr.SymVal(evs[rng.Intn(len(evs))])})
			},
		},
		{
			// Event-guarded counter: mixed windows branch on the
			// event; occasional resets force ite updates.
			name: "mixed", schema: mixedSchema,
			step: func(rng *rand.Rand, tr *trace.Trace, i int) {
				var x int64
				if i > 0 {
					x = tr.At(i - 1)[1].I
				}
				ev := "write"
				switch rng.Intn(5) {
				case 0:
					ev, x = "reset", 0
				case 1, 2:
					ev, x = "read", x-1
				default:
					x++
				}
				tr.MustAppend(trace.Observation{expr.SymVal(ev), expr.IntVal(x)})
			},
		},
		{
			// Boolean input steering an integer state: bool guards
			// group the window steps.
			name: "boolinput", schema: boolSchema,
			step: func(rng *rand.Rand, tr *trace.Trace, i int) {
				var x int64
				if i > 0 {
					x = tr.At(i - 1)[1].I
				}
				b := rng.Intn(2) == 0
				if b {
					x++
				} else {
					x--
				}
				tr.MustAppend(trace.Observation{expr.BoolVal(b), expr.IntVal(x)})
			},
		},
	}
}

func randTrace(rng *rand.Rand, sg schemaGen, n int) *trace.Trace {
	tr := trace.New(sg.schema)
	for i := 0; i < n; i++ {
		sg.step(rng, tr, i)
	}
	return tr
}

// seedStrings renders the per-variable seed pools for comparison.
func seedStrings(g *Generator) map[string][]string {
	out := map[string][]string{}
	for name, es := range g.Seeds() {
		ss := make([]string, len(es))
		for i, e := range es {
			ss[i] = e.String()
		}
		out[name] = ss
	}
	return out
}

func alphabetKeys(g *Generator) map[string]bool {
	out := map[string]bool{}
	for _, p := range g.Alphabet() {
		out[p.Key] = true
	}
	return out
}

// csvInput builds a quote-free counter CSV, with a malformed record
// injected at row badAt (-1 for none).
func csvInput(rows, badAt int) []byte {
	var buf bytes.Buffer
	buf.WriteString("count:int,event:sym\n")
	for i := 0; i < rows; i++ {
		if i == badAt {
			buf.WriteString("notanint,ev\n")
			continue
		}
		ev := "tick"
		if i%5 == 4 {
			ev = "wrap"
		}
		fmt.Fprintf(&buf, "%d,%s\n", i%5, ev)
	}
	return buf.Bytes()
}

// sharing maps each window to the index of the first window holding
// the same predicate pointer, so two sequences can be compared for
// identical interning structure in linear time.
func sharing(ps []*Predicate) []int {
	first := map[*Predicate]int{}
	out := make([]int, len(ps))
	for i, p := range ps {
		if j, ok := first[p]; ok {
			out[i] = j
			continue
		}
		first[p] = i
		out[i] = i
	}
	return out
}

func TestSequenceSourceMatchesBatch(t *testing.T) {
	type input func(t *testing.T) trace.Source
	fromTrace := func(tr *trace.Trace) input {
		return func(*testing.T) trace.Source { return trace.NewTraceSource(tr) }
	}
	fromCSV := func(data []byte) input {
		return func(t *testing.T) trace.Source {
			src, err := trace.NewCSVSource(trace.NewBytes(data))
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	}
	type tcase struct {
		name   string
		opts   Options
		inputs []input // sequenced in order through one generator per path
		// wantErr, when set, is the prefix both paths' error must carry.
		wantErr string
	}
	cases := []tcase{
		{name: "mod4", inputs: []input{fromTrace(mixedTrace(t, 64))}},
		// With MaxSize 2 the window [5,9,13] needs x + 4 (size 3) and
		// fails with ErrNoSolution; the preceding [5,5,9] window is
		// inconsistent and falls back to the explicit relation without
		// error. The first failing window starts at observation 4.
		{
			name:    "error-index",
			opts:    Options{Synth: synth.Options{MaxSize: 2}},
			inputs:  []input{fromTrace(intTrace(t, 5, 5, 5, 5, 5, 9, 13))},
			wantErr: "predicate: window at observation 4: ",
		},
		// The zero-copy CSV source interns its own records (IDSource);
		// the batch path decodes them through Collect.
		{name: "csv", inputs: []input{fromCSV(csvInput(20_000, -1))}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, sg := range schemaGens() {
		// Two traces per run: the second exercises a generator whose
		// memo and seed pools are already populated.
		trs := []input{fromTrace(randTrace(rng, sg, 48)), fromTrace(randTrace(rng, sg, 48))}
		cases = append(cases,
			tcase{name: "random/" + sg.name, inputs: trs},
			tcase{name: "random/" + sg.name + "/nomemo", opts: Options{NoMemo: true}, inputs: trs})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src0 := tc.inputs[0](t)
			gBatch, err := NewGenerator(src0.Schema(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			gStream, err := NewGenerator(src0.Schema(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for ti, in := range tc.inputs {
				tr, err := trace.Collect(in(t))
				if err != nil {
					t.Fatal(err)
				}
				batch, errB := gBatch.Sequence(tr)
				var runs []Run
				errS := gStream.SequenceSource(in(t), func(r Run) error {
					runs = append(runs, r)
					return nil
				})
				if tc.wantErr != "" {
					if errB == nil || !strings.HasPrefix(errB.Error(), tc.wantErr) {
						t.Fatalf("input %d: batch error %v, want prefix %q", ti, errB, tc.wantErr)
					}
					if errS == nil || errS.Error() != errB.Error() {
						t.Fatalf("input %d: error mismatch:\nbatch:  %v\nstream: %v", ti, errB, errS)
					}
					continue
				}
				if errB != nil || errS != nil {
					t.Fatalf("input %d: batch err %v, stream err %v", ti, errB, errS)
				}
				stream := expand(runs)
				if len(stream) != len(batch) {
					t.Fatalf("input %d: stream yields %d windows, batch %d", ti, len(stream), len(batch))
				}
				for i := range batch {
					if stream[i].Key != batch[i].Key {
						t.Fatalf("input %d window %d: stream %q, batch %q", ti, i, stream[i].Key, batch[i].Key)
					}
				}
				// Interning: equal predicates must be pointer-equal in
				// both runs, with the same sharing structure.
				sb, ss := sharing(batch), sharing(stream)
				for i := range sb {
					if sb[i] != ss[i] {
						t.Fatalf("input %d: sharing differs at window %d: batch %d, stream %d", ti, i, sb[i], ss[i])
					}
				}
				// Runs must be maximal: no adjacent equal predicates.
				for i := 1; i < len(runs); i++ {
					if runs[i].Pred == runs[i-1].Pred {
						t.Fatalf("input %d: runs %d and %d share predicate %q", ti, i-1, i, runs[i].Pred.Key)
					}
				}
			}
			// Work accounting, seed pools and alphabet match exactly.
			if bs, ss := gBatch.Stats(), gStream.Stats(); bs != ss {
				t.Errorf("stats diverge: batch %+v, stream %+v", bs, ss)
			}
			if sB, sS := fmt.Sprint(seedStrings(gBatch)), fmt.Sprint(seedStrings(gStream)); sB != sS {
				t.Errorf("seed pools differ:\nbatch:  %s\nstream: %s", sB, sS)
			}
			if aB, aS := fmt.Sprint(alphabetKeys(gBatch)), fmt.Sprint(alphabetKeys(gStream)); aB != aS {
				t.Errorf("alphabets differ:\nbatch:  %s\nstream: %s", aB, aS)
			}
		})
	}
}

// TestSequenceSourceShortTrace: a trace shorter than the window is an
// error, also when the window is huge (as a damaged model file can
// declare), which must not size any allocation.
func TestSequenceSourceShortTrace(t *testing.T) {
	tr := mixedTrace(t, 2)
	for _, window := range []int{0, math.MaxInt32} {
		g, err := NewGenerator(tr.Schema(), Options{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		err = g.SequenceSource(trace.NewTraceSource(tr), func(Run) error { return nil })
		if err == nil {
			t.Fatalf("window %d: no error for trace shorter than window", g.Window())
		}
	}
}

// TestSequenceSourceEmitError: an error raised mid-stream — by emit
// itself, or by a malformed record deep in a CSV trace — aborts the
// stream and surfaces from SequenceSource. The decode error must
// arrive after the runs of the earlier, well-formed records were
// emitted.
func TestSequenceSourceEmitError(t *testing.T) {
	t.Run("emit", func(t *testing.T) {
		tr := mixedTrace(t, 32)
		sentinel := errors.New("stop")
		g, err := NewGenerator(tr.Schema(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = g.SequenceSource(trace.NewTraceSource(tr), func(Run) error { return sentinel })
		if !errors.Is(err, sentinel) {
			t.Fatalf("got %v, want sentinel emit error", err)
		}
	})
	t.Run("decode", func(t *testing.T) {
		const rows, badAt = 20_000, 15_000
		src, err := trace.NewCSVSource(trace.NewBytes(csvInput(rows, badAt)))
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(src.Schema(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		err = g.SequenceSource(src, func(r Run) error {
			emitted += r.Count
			return nil
		})
		if err == nil {
			t.Fatal("malformed record decoded without error")
		}
		// Header is line 1, so row i sits on line i+2.
		if want := fmt.Sprintf("trace csv: line %d", badAt+2); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
		if complete := badAt + 1 - g.Window(); emitted == 0 || emitted > complete {
			t.Errorf("emitted %d windows before the error, want 1..%d", emitted, complete)
		}
	})
}
