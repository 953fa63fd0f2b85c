package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the canonical surface syntax produced by Expr.String.
//
// Grammar (precedence climbing, lowest first):
//
//	expr    := or
//	or      := and { "||" and }
//	and     := cmp { "&&" cmp }
//	cmp     := sum [ ("="|"!="|"<"|"<="|">"|">=") sum ]
//	sum     := term { ("+"|"-") term }
//	term    := factor { "*" factor }
//	factor  := "-" "(" expr ")" | "!" "(" expr ")" | "-" factor
//	         | "ite" "(" expr "," expr "," expr ")"
//	         | "(" expr ")" | int | "true" | "false"
//	         | "'" sym "'" | ident ["'"]
//
// types gives the type of each trace variable; identifiers not present
// in types are a parse error. Symbols ('quoted') parse as Sym literals.
// Factors nested deeper than maxNesting are a parse error.
func Parse(src string, types map[string]Type) (Expr, error) {
	p := &parser{src: src, types: types}
	p.scan()
	e, err := p.parseOr()
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("parse %q: trailing input at %q", src, p.peek().text)
	}
	if err := checkTypes(e); err != nil {
		return nil, fmt.Errorf("parse %q: %w", src, err)
	}
	return e, nil
}

// MustParse is Parse that panics on error; intended for tests and
// static tables.
func MustParse(src string, types map[string]Type) Expr {
	e, err := Parse(src, types)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokInt
	tokIdent
	tokSym
	tokOp     // punctuation operator
	tokLParen // (
	tokRParen // )
	tokComma
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// maxNesting bounds how deeply factors may nest: each parenthesis,
// unary operator and ite opens one level. The parser recurses a few
// frames per level, and a goroutine stack overflow is fatal rather than
// a recoverable panic, so model files and checkpoints must not be able
// to choose the depth. Every expression the learner prints nests only a
// few levels deep.
const maxNesting = 1000

// parser lexes on demand, one token of lookahead at a time, so input
// past the point where parsing stops is never scanned.
type parser struct {
	src   string
	pos   int   // offset of the first byte not yet scanned
	tok   token // lookahead
	err   error // lexical error; scanning stops there
	depth int   // parseFactor calls on the stack
	types map[string]Type
}

// scan lexes the token at p.pos into the lookahead. A lexical error is
// recorded in p.err and scans as end of input, so parsing stops there.
func (p *parser) scan() {
	src, i := p.src, p.pos
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	p.tok = token{tokEOF, "", i}
	p.pos = i
	if i == len(src) || p.err != nil {
		return
	}
	c := src[i]
	j := i + 1
	switch {
	case c == '(':
		p.tok = token{tokLParen, "(", i}
	case c == ')':
		p.tok = token{tokRParen, ")", i}
	case c == ',':
		p.tok = token{tokComma, ",", i}
	case c == '\'':
		k := strings.IndexByte(src[i+1:], '\'')
		if k < 0 {
			p.err = fmt.Errorf("lex %q: unterminated symbol at %d", src, i)
			return
		}
		p.tok = token{tokSym, src[i+1 : i+1+k], i}
		j = i + k + 2
	case c >= '0' && c <= '9':
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
		}
		p.tok = token{tokInt, src[i:j], i}
	case isIdentStart(rune(c)):
		for j < len(src) && isIdentRune(rune(src[j])) {
			j++
		}
		// A trailing apostrophe marks a primed variable; it belongs
		// to the identifier token. Symbols always follow an operator,
		// never an identifier, so an apostrophe directly after
		// identifier characters is a prime, not a symbol's opening.
		if j < len(src) && src[j] == '\'' {
			j++
		}
		p.tok = token{tokIdent, src[i:j], i}
	default:
		for _, op := range [...]string{"&&", "||", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "!"} {
			if strings.HasPrefix(src[i:], op) {
				p.tok = token{tokOp, op, i}
				p.pos = i + len(op)
				return
			}
		}
		p.err = fmt.Errorf("lex %q: unexpected character %q at %d", src, c, i)
		return
	}
	p.pos = j
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentRune(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.scan(); return t }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

func (p *parser) acceptOp(text string) bool {
	if t := p.tok; t.kind == tokOp && t.text == text {
		p.scan()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("expected %s at %d, found %q", what, t.pos, t.text)
	}
	return t, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or(l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("&&") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = And(l, r)
	}
	return l, nil
}

var cmpOps = map[string]Op{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.scan()
			r, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseSum() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = Add(l, r)
		case p.acceptOp("-"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = Sub(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("*") {
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = Mul(l, r)
	}
	return l, nil
}

func (p *parser) parseFactor() (Expr, error) {
	t := p.peek()
	if p.depth == maxNesting {
		return nil, fmt.Errorf("expression nested deeper than %d levels at %d", maxNesting, t.pos)
	}
	p.depth++
	defer func() { p.depth-- }()
	switch {
	case t.kind == tokOp && t.text == "-":
		p.scan()
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		// Fold negation of literals so that -5 parses as a literal,
		// matching the canonical printer.
		if lit, ok := x.(*Lit); ok && lit.Val.T == Int {
			return IntLit(-lit.Val.I), nil
		}
		return Neg(x), nil
	case t.kind == tokOp && t.text == "!":
		p.scan()
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return Not(x), nil
	case t.kind == tokLParen:
		p.scan()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokInt:
		p.scan()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("integer literal %q at %d: %w", t.text, t.pos, err)
		}
		return IntLit(v), nil
	case t.kind == tokSym:
		p.scan()
		return SymLit(t.text), nil
	case t.kind == tokIdent:
		p.scan()
		switch t.text {
		case "true":
			return BoolLit(true), nil
		case "false":
			return BoolLit(false), nil
		case "ite":
			if _, err := p.expect(tokLParen, "("); err != nil {
				return nil, err
			}
			cond, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokComma, ","); err != nil {
				return nil, err
			}
			then, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokComma, ","); err != nil {
				return nil, err
			}
			els, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			return NewIte(cond, then, els), nil
		}
		name, primed := strings.CutSuffix(t.text, "'")
		ty, ok := p.types[name]
		if !ok {
			return nil, fmt.Errorf("unknown variable %q at %d", name, t.pos)
		}
		return &Var{Name: name, Primed: primed, T: ty}, nil
	default:
		return nil, fmt.Errorf("unexpected token %q at %d", t.text, t.pos)
	}
}

// checkTypes verifies static well-typedness of a parsed expression.
func checkTypes(e Expr) error {
	switch n := e.(type) {
	case *Lit, *Var:
		return nil
	case *Unary:
		if err := checkTypes(n.X); err != nil {
			return err
		}
		want := Int
		if n.Op == OpNot {
			want = Bool
		}
		if n.X.Type() != want {
			return fmt.Errorf("operand of %s has type %s, want %s", n.Op, n.X.Type(), want)
		}
		return nil
	case *Binary:
		if err := checkTypes(n.L); err != nil {
			return err
		}
		if err := checkTypes(n.R); err != nil {
			return err
		}
		lt, rt := n.L.Type(), n.R.Type()
		switch n.Op {
		case OpAdd, OpSub, OpMul, OpLt, OpLe, OpGt, OpGe:
			if lt != Int || rt != Int {
				return fmt.Errorf("operands of %s have types %s,%s, want int,int", n.Op, lt, rt)
			}
		case OpEq, OpNe:
			if lt != rt {
				return fmt.Errorf("operands of %s have mismatched types %s,%s", n.Op, lt, rt)
			}
		case OpAnd, OpOr:
			if lt != Bool || rt != Bool {
				return fmt.Errorf("operands of %s have types %s,%s, want bool,bool", n.Op, lt, rt)
			}
		}
		return nil
	case *Ite:
		if err := checkTypes(n.Cond); err != nil {
			return err
		}
		if err := checkTypes(n.Then); err != nil {
			return err
		}
		if err := checkTypes(n.Else); err != nil {
			return err
		}
		if n.Cond.Type() != Bool {
			return fmt.Errorf("ite condition has type %s, want bool", n.Cond.Type())
		}
		if n.Then.Type() != n.Else.Type() {
			return fmt.Errorf("ite branches have mismatched types %s,%s", n.Then.Type(), n.Else.Type())
		}
		return nil
	default:
		return fmt.Errorf("unknown expression node %T", e)
	}
}
