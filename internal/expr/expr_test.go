package expr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var testTypes = map[string]Type{
	"x": Int, "y": Int, "ev": Sym, "flag": Bool,
}

func env(x, y int64, ev string, flag bool, xn, yn int64) MapEnv {
	return MapEnv{
		Cur: map[string]Value{
			"x": IntVal(x), "y": IntVal(y), "ev": SymVal(ev), "flag": BoolVal(flag),
		},
		Next: map[string]Value{
			"x": IntVal(xn), "y": IntVal(yn),
		},
	}
}

func TestEvalArithmetic(t *testing.T) {
	e := env(3, 4, "read", true, 5, 6)
	cases := []struct {
		src  string
		want Value
	}{
		{"x + y", IntVal(7)},
		{"x - y", IntVal(-1)},
		{"x * y", IntVal(12)},
		{"-(x)", IntVal(-3)},
		{"x + y * y", IntVal(19)},
		{"(x + y) * y", IntVal(28)},
		{"x' + y'", IntVal(11)},
		{"x' = x + 2", BoolVal(true)},
		{"x < y", BoolVal(true)},
		{"x <= 3", BoolVal(true)},
		{"x > y", BoolVal(false)},
		{"x >= 3", BoolVal(true)},
		{"x != y", BoolVal(true)},
		{"ev = 'read'", BoolVal(true)},
		{"ev != 'write'", BoolVal(true)},
		{"flag && x = 3", BoolVal(true)},
		{"flag || x = 99", BoolVal(true)},
		{"!(flag)", BoolVal(false)},
		{"ite(x < y, x, y)", IntVal(3)},
		{"ite(x > y, x, y)", IntVal(4)},
		{"ite(ev = 'read', x - 1, x + 1)", IntVal(2)},
		{"true", BoolVal(true)},
		{"false", BoolVal(false)},
		{"x - y - 1", IntVal(-2)}, // left associativity
	}
	for _, c := range cases {
		ex, err := Parse(c.src, testTypes)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got, err := ex.Eval(e)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("Eval(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	// Unbound variable.
	ex := NewVar("z", Int)
	if _, err := ex.Eval(MapEnv{}); err == nil {
		t.Error("Eval of unbound variable succeeded, want error")
	}
	// Type mismatch surfaced at evaluation time when constructed
	// directly (bypassing the parser's checker).
	bad := Add(IntLit(1), BoolLit(true))
	if _, err := bad.Eval(MapEnv{}); err == nil {
		t.Error("Eval(1 + true) succeeded, want error")
	}
	// Wrongly-typed binding.
	e := MapEnv{Cur: map[string]Value{"x": SymVal("oops")}}
	if _, err := NewVar("x", Int).Eval(e); err == nil {
		t.Error("Eval of sym-bound int variable succeeded, want error")
	}
}

func TestShortCircuit(t *testing.T) {
	// Right operand references an unbound variable; short-circuit
	// evaluation must not touch it.
	unbound := NewVar("nope", Bool)
	if v, err := And(BoolLit(false), unbound).Eval(MapEnv{}); err != nil || v.B {
		t.Errorf("false && nope = %v, %v; want false, nil", v, err)
	}
	if v, err := Or(BoolLit(true), unbound).Eval(MapEnv{}); err != nil || !v.B {
		t.Errorf("true || nope = %v, %v; want true, nil", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"x +",
		"x + * y",
		"(x",
		"z + 1",            // unknown variable
		"x && y",           // int operands to &&
		"flag + 1",         // bool operand to +
		"ev < 'read'",      // ordering on symbols
		"ite(x, y, y)",     // non-bool condition
		"ite(flag, x, ev)", // branch type mismatch
		"x = ev",           // cross-type equality
		"'unterminated",
		"x $ y",
		"x 1",
	}
	for _, src := range bad {
		if e, err := Parse(src, testTypes); err == nil {
			t.Errorf("Parse(%q) = %s, want error", src, e)
		}
	}
}

// TestParseNestingBound: nesting past maxNesting — parentheses, unary
// chains or ite — is a parse error, returned quickly even a million
// levels deep; nesting up to the bound parses.
func TestParseNestingBound(t *testing.T) {
	nest := func(open, leaf, close string, n int) string {
		return strings.Repeat(open, n) + leaf + strings.Repeat(close, n)
	}
	const deep = 1_000_000
	bad := map[string]string{
		"parens": nest("(", "x", ")", deep),
		"neg":    nest("-", "x", "", deep),
		"not":    nest("!", "flag", "", deep),
		"ite":    nest("ite(flag, x, ", "x", ")", deep),
		"mixed":  nest("-(", "x", ")", deep),
		"bound":  nest("(", "x", ")", maxNesting),
	}
	for name, src := range bad {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			if _, err := Parse(src, testTypes); err == nil || !strings.Contains(err.Error(), "nested deeper") {
				t.Errorf("err = %v, want a nesting error", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("rejection took %v, want under 1s", d)
			}
		})
	}
	ok := []string{
		nest("(", "x", ")", maxNesting-1),
		nest("-", "x", "", maxNesting-1),
		nest("ite(flag, x, ", "x", ")", maxNesting-1),
	}
	for _, src := range ok {
		if _, err := Parse(src, testTypes); err != nil {
			t.Errorf("Parse at nesting %d: %v", maxNesting-1, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"x' = x + 1",
		"x' = ite(x >= 128, x - 1, x + 1)",
		"(x = 5 && y = 1) || (x = -5 && y = -1)",
		"ev = 'sched_waking' && x' = 0",
		"x - (y - 1)",
		"x - y - 1",
		"-(x) + y",
		"!(flag) && true",
		"x * (y + 2)",
	}
	for _, src := range srcs {
		e1, err := Parse(src, testTypes)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		s1 := e1.String()
		e2, err := Parse(s1, testTypes)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, s1, err)
		}
		if s2 := e2.String(); s1 != s2 {
			t.Errorf("round trip of %q: printed %q then %q", src, s1, s2)
		}
	}
}

// randExpr builds a random well-typed expression of the requested type
// over testTypes variables, for property testing.
func randExpr(r *rand.Rand, want Type, depth int) Expr {
	if depth <= 0 {
		switch want {
		case Int:
			if r.Intn(2) == 0 {
				return IntLit(int64(r.Intn(21) - 10))
			}
			if r.Intn(2) == 0 {
				return NewVar("x", Int)
			}
			return &Var{Name: "y", Primed: r.Intn(2) == 0, T: Int}
		case Bool:
			if r.Intn(3) == 0 {
				return BoolLit(r.Intn(2) == 0)
			}
			return NewVar("flag", Bool)
		default:
			if r.Intn(2) == 0 {
				return SymLit([]string{"read", "write", "reset"}[r.Intn(3)])
			}
			return NewVar("ev", Sym)
		}
	}
	switch want {
	case Int:
		switch r.Intn(5) {
		case 0:
			return Add(randExpr(r, Int, depth-1), randExpr(r, Int, depth-1))
		case 1:
			return Sub(randExpr(r, Int, depth-1), randExpr(r, Int, depth-1))
		case 2:
			return Mul(randExpr(r, Int, depth-1), randExpr(r, Int, depth-1))
		case 3:
			return Neg(randExpr(r, Int, depth-1))
		default:
			return NewIte(randExpr(r, Bool, depth-1), randExpr(r, Int, depth-1), randExpr(r, Int, depth-1))
		}
	case Bool:
		switch r.Intn(7) {
		case 0:
			return And(randExpr(r, Bool, depth-1), randExpr(r, Bool, depth-1))
		case 1:
			return Or(randExpr(r, Bool, depth-1), randExpr(r, Bool, depth-1))
		case 2:
			return Not(randExpr(r, Bool, depth-1))
		case 3:
			return Eq(randExpr(r, Int, depth-1), randExpr(r, Int, depth-1))
		case 4:
			return Lt(randExpr(r, Int, depth-1), randExpr(r, Int, depth-1))
		case 5:
			return Eq(randExpr(r, Sym, 0), randExpr(r, Sym, 0))
		default:
			return Le(randExpr(r, Int, depth-1), randExpr(r, Int, depth-1))
		}
	default:
		return randExpr(r, Sym, 0)
	}
}

func randEnv(r *rand.Rand) MapEnv {
	return env(
		int64(r.Intn(21)-10), int64(r.Intn(21)-10),
		[]string{"read", "write", "reset"}[r.Intn(3)],
		r.Intn(2) == 0,
		int64(r.Intn(21)-10), int64(r.Intn(21)-10),
	)
}

// Property: printing then reparsing preserves both the canonical form
// and the value on random environments.
func TestPropertyPrintParseEval(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		for _, ty := range []Type{Int, Bool} {
			e := randExpr(r, ty, 3)
			src := e.String()
			back, err := Parse(src, testTypes)
			if err != nil {
				t.Fatalf("reparse %q: %v", src, err)
			}
			if back.String() != src {
				t.Fatalf("canonical form changed: %q -> %q", src, back.String())
			}
			ev := randEnv(r)
			v1, err1 := e.Eval(ev)
			v2, err2 := back.Eval(ev)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("eval disagreement on %q: %v vs %v", src, err1, err2)
			}
			if err1 == nil && !v1.Equal(v2) {
				t.Fatalf("value disagreement on %q: %s vs %s", src, v1, v2)
			}
		}
	}
}

// Property: Simplify preserves value on random environments and never
// increases size.
func TestPropertySimplify(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		for _, ty := range []Type{Int, Bool} {
			e := randExpr(r, ty, 4)
			s := Simplify(e)
			if s.Size() > e.Size() {
				t.Fatalf("Simplify grew %q (%d) to %q (%d)", e, e.Size(), s, s.Size())
			}
			if s.Type() != e.Type() {
				t.Fatalf("Simplify changed type of %q: %s -> %s", e, e.Type(), s.Type())
			}
			for j := 0; j < 8; j++ {
				ev := randEnv(r)
				v1, err1 := e.Eval(ev)
				v2, err2 := s.Eval(ev)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("Simplify changed eval outcome of %q -> %q: %v vs %v", e, s, err1, err2)
				}
				if err1 == nil && !v1.Equal(v2) {
					t.Fatalf("Simplify changed value of %q -> %q: %s vs %s", e, s, v1, v2)
				}
			}
		}
	}
}

func TestSimplifyCases(t *testing.T) {
	cases := []struct{ in, want string }{
		{"x + 0", "x"},
		{"0 + x", "x"},
		{"x - 0", "x"},
		{"x - x", "0"},
		{"x * 1", "x"},
		{"1 * x", "x"},
		{"x * 0", "0"},
		{"true && flag", "flag"},
		{"flag && false", "false"},
		{"flag || true", "true"},
		{"false || flag", "flag"},
		{"flag && flag", "flag"},
		{"!(!(flag))", "flag"},
		{"x = x", "true"},
		{"x < x", "false"},
		{"x <= x", "true"},
		{"ite(true, x, y)", "x"},
		{"ite(flag, x, x)", "x"},
		{"1 + 2 * 3", "7"},
		{"ite(3 < 2, x, y + 0)", "y"},
	}
	for _, c := range cases {
		e := MustParse(c.in, testTypes)
		got := Simplify(e).String()
		if got != c.want {
			t.Errorf("Simplify(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestVars(t *testing.T) {
	e := MustParse("x' = ite(ev = 'read', x - 1, y + 1)", testTypes)
	vs := Vars(e)
	for _, want := range []string{"x'", "x", "y", "ev"} {
		if _, ok := vs[want]; !ok {
			t.Errorf("Vars missing %q (got %v)", want, vs)
		}
	}
	if len(vs) != 4 {
		t.Errorf("Vars returned %d entries, want 4", len(vs))
	}
}

func TestSize(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"x", 1},
		{"5", 1},
		{"x + 1", 3},
		{"ite(flag, x, y)", 4},
		{"x' = x + 1", 5},
	}
	for _, c := range cases {
		if got := MustParse(c.src, testTypes).Size(); got != c.want {
			t.Errorf("Size(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestSymbolQuotingNoCollision(t *testing.T) {
	// A symbol literal spelled like a variable must stay a literal.
	e := MustParse("ev = 'x'", testTypes)
	if !strings.Contains(e.String(), "'x'") {
		t.Errorf("symbol literal lost quoting: %q", e)
	}
	v, err := e.Eval(MapEnv{Cur: map[string]Value{"ev": SymVal("x")}})
	if err != nil || !v.B {
		t.Errorf("ev = 'x' with ev bound to x: got %v, %v", v, err)
	}
}

func TestSubstitute(t *testing.T) {
	e := MustParse("x' = ite(ev = 'read', x - 1, x + 1)", testTypes)
	s := Simplify(Substitute(e, "ev", SymVal("read")))
	if got := s.String(); got != "x' = x - 1" {
		t.Errorf("Substitute read = %q, want x' = x - 1", got)
	}
	s = Simplify(Substitute(e, "ev", SymVal("write")))
	if got := s.String(); got != "x' = x + 1" {
		t.Errorf("Substitute write = %q, want x' = x + 1", got)
	}
	// Primed occurrences untouched; unrelated names untouched.
	e2 := MustParse("x' = x + y", testTypes)
	if got := Substitute(e2, "x", IntVal(5)).String(); got != "x' = 5 + y" {
		t.Errorf("Substitute x = %q, want x' = 5 + y", got)
	}
	if got := Substitute(e2, "zzz", IntVal(5)); got != e2 {
		t.Errorf("Substitute of absent var changed expression")
	}
}

// TestQuickValueEquality: Value.Equal is reflexive and symmetric over
// quick-generated values, and String is injective per type for ints.
func TestQuickValueEquality(t *testing.T) {
	f := func(a, b int64, s1, s2 string, x, y bool) bool {
		vals := []Value{
			IntVal(a), IntVal(b), SymVal(s1), SymVal(s2), BoolVal(x), BoolVal(y),
		}
		for _, v := range vals {
			if !v.Equal(v) {
				return false
			}
		}
		for _, v := range vals {
			for _, w := range vals {
				if v.Equal(w) != w.Equal(v) {
					return false
				}
			}
		}
		if (a == b) != IntVal(a).Equal(IntVal(b)) {
			return false
		}
		if IntVal(a).Equal(BoolVal(x)) || SymVal(s1).Equal(IntVal(a)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstituteGround: substituting every free current-state
// variable yields an expression whose value no longer depends on the
// environment's current bindings.
func TestQuickSubstituteGround(t *testing.T) {
	f := func(x, y, xn int64) bool {
		e := MustParse("x' = x + y", testTypes)
		g := Substitute(Substitute(e, "x", IntVal(x)), "y", IntVal(y))
		env1 := MapEnv{
			Cur:  map[string]Value{"x": IntVal(999), "y": IntVal(-999)},
			Next: map[string]Value{"x": IntVal(xn)},
		}
		env2 := MapEnv{Next: map[string]Value{"x": IntVal(xn)}}
		v1, err1 := g.Eval(env1)
		v2, err2 := g.Eval(env2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1.Equal(v2) && v1.B == (xn == x+y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
