package predicate

import (
	"fmt"
	"strings"
	"unicode"

	"github.com/moara/moara/internal/value"
)

// ParseExpr parses a predicate expression in the query language's
// grammar:
//
//	expr   := and-expr ('or' and-expr)*
//	and    := unary ('and' unary)*
//	unary  := 'not' unary | '(' expr ')' | simple
//	simple := attr op literal,  op ∈ {<, >, <=, >=, =, !=, <>}
//
// Attribute names are identifiers (letters, digits, '_', '-', '.');
// literals are numbers, true/false, quoted strings, or bare words.
// 'not' is pushed down to the operators per the paper's implicit-not
// support.
func ParseExpr(s string) (Expr, error) {
	p := NewParser(s)
	e, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return e, nil
}

// ParseSimple parses a single simple predicate term.
func ParseSimple(s string) (Simple, error) {
	e, err := ParseExpr(s)
	if err != nil {
		return Simple{}, err
	}
	sim, ok := e.(Simple)
	if !ok {
		return Simple{}, fmt.Errorf("predicate: %q is not a simple predicate", s)
	}
	return sim, nil
}

// MustParse is ParseExpr that panics on error; for tests and examples.
func MustParse(s string) Expr {
	e, err := ParseExpr(s)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokOp
	tokPunct // '(', ')' or ','
	tokLiteral
	tokErr
)

type token struct {
	kind tokKind
	text string
}

func lex(s string) []token {
	var out []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(' || c == ')' || c == ',':
			out = append(out, token{tokPunct, s[i : i+1]})
			i++
		case c == '<' || c == '>' || c == '=' || c == '!':
			j := i + 1
			if j < len(s) && (s[j] == '=' || (c == '<' && s[j] == '>')) {
				j++
			}
			out = append(out, token{tokOp, s[i:j]})
			i = j
		case c == '"' || c == '\'':
			q := c
			j := i + 1
			for j < len(s) && s[j] != q {
				j++
			}
			if j >= len(s) {
				out = append(out, token{tokErr, s[i:]})
				return out
			}
			out = append(out, token{tokLiteral, s[i : j+1]})
			i = j + 1
		default:
			j := i
			for j < len(s) && isWordChar(s[j]) {
				j++
			}
			if j == i {
				out = append(out, token{tokErr, s[i:]})
				return out
			}
			out = append(out, token{tokIdent, s[i:j]})
			i = j
		}
	}
	out = append(out, token{tokEOF, ""})
	return out
}

func isWordChar(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == '*' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') ||
		c == '+'
}

// Parser reads query-language text as one token stream. ParseExpr reads
// a whole predicate with it; a reader of a larger grammar walks its own
// clauses with Keyword, Word and Punct and calls Expr where a predicate
// belongs. Expr stops at the first token that cannot continue the
// expression, so the caller decides what may follow it.
type Parser struct {
	toks []token
	pos  int
}

// NewParser lexes s for reading.
func NewParser(s string) *Parser { return &Parser{toks: lex(s)} }

func (p *Parser) peek() token { return p.toks[p.pos] }

func (p *Parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// Keyword consumes the next token if it is the whole word kw, compared
// case-insensitively: "wherex" is not the keyword "where".
func (p *Parser) Keyword(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

// Word consumes and returns the next token if it is an identifier or a
// bare (unquoted) literal.
func (p *Parser) Word() (string, bool) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", false
	}
	p.pos++
	return t.text, true
}

// Punct consumes the next token if it is the punctuation c, one of
// '(', ')' and ','.
func (p *Parser) Punct(c byte) bool {
	if t := p.peek(); t.kind == tokPunct && t.text[0] == c {
		p.pos++
		return true
	}
	return false
}

// Expr reads one predicate expression.
func (p *Parser) Expr() (Expr, error) { return p.parseOr() }

// Done reports an error unless every token has been read.
func (p *Parser) Done() error {
	if t := p.peek(); t.kind != tokEOF {
		return fmt.Errorf("predicate: trailing input %q", t.text)
	}
	return nil
}

func (p *Parser) parseOr() (Expr, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []Expr{first}
	for p.Keyword("or") {
		t, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return Or{Terms: terms}, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	terms := []Expr{first}
	for p.Keyword("and") {
		t, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return And{Terms: terms}, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.Keyword("not") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Negate(inner), nil
	}
	if p.Punct('(') {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.Punct(')') {
			return nil, fmt.Errorf("predicate: missing ')' near %q", p.peek().text)
		}
		return inner, nil
	}
	return p.parseSimpleTerm()
}

func (p *Parser) parseSimpleTerm() (Expr, error) {
	attrTok := p.next()
	if attrTok.kind != tokIdent {
		return nil, fmt.Errorf("predicate: expected attribute, got %q", attrTok.text)
	}
	opTok := p.next()
	if opTok.kind != tokOp {
		return nil, fmt.Errorf("predicate: expected operator after %q, got %q", attrTok.text, opTok.text)
	}
	op, err := ParseOp(opTok.text)
	if err != nil {
		return nil, err
	}
	litTok := p.next()
	if litTok.kind != tokIdent && litTok.kind != tokLiteral {
		return nil, fmt.Errorf("predicate: expected literal after %q %s, got %q", attrTok.text, op, litTok.text)
	}
	v, err := value.Parse(litTok.text)
	if err != nil {
		return nil, err
	}
	return Simple{Attr: attrTok.text, Op: op, Val: v}, nil
}
