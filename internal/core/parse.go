package core

import (
	"fmt"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/predicate"
)

// parseRequestText reads the front-end query language, whose grammar
// README "Query language" states, as one token stream from the
// predicate lexer. Each clause is whole and appears at most once, in
// any order; a where predicate ends at the first token that cannot
// continue it. An every clause makes the request a standing query
// (Request.Period > 0), run via Subscribe rather than Execute.
func parseRequestText(s string) (Request, error) {
	p := predicate.NewParser(s)
	p.Keyword("select")
	fn, ok := p.Word()
	if !ok || !p.Punct('(') {
		return Request{}, fmt.Errorf("core: expected <agg>(<attr>) in %q", s)
	}
	attr, ok := p.Word()
	if !ok {
		return Request{}, fmt.Errorf("core: expected one attribute name in %q", s)
	}
	// Two-argument forms — quantile(attr, q), topkeys(attr, k) — carry
	// the parameter after a comma; everything else takes a bare attr.
	arg := ""
	if p.Punct(',') {
		if arg, ok = p.Word(); !ok {
			return Request{}, fmt.Errorf("core: bad aggregate argument list in %q", s)
		}
	}
	if !p.Punct(')') {
		return Request{}, fmt.Errorf("core: missing ')' in %q", s)
	}
	spec, err := aggregate.ParseSpecArg(fn, arg)
	if err != nil {
		return Request{}, err
	}
	req := Request{Attr: attr, Spec: spec}
	for {
		switch {
		case p.Keyword("where"):
			if req.Pred != nil {
				return Request{}, fmt.Errorf("core: duplicate where clause in %q", s)
			}
			if req.Pred, err = p.Expr(); err != nil {
				return Request{}, err
			}
		case p.Keyword("group"):
			if !p.Keyword("by") {
				return Request{}, fmt.Errorf("core: expected 'group by' in %q", s)
			}
			if req.GroupBy != "" {
				return Request{}, fmt.Errorf("core: duplicate group by clause in %q", s)
			}
			key, _ := p.Word()
			if !validGroupKey(key) {
				return Request{}, fmt.Errorf("core: bad group by attribute %q in %q", key, s)
			}
			req.GroupBy = key
		case p.Keyword("every"):
			if req.Period != 0 {
				return Request{}, fmt.Errorf("core: duplicate every clause in %q", s)
			}
			w, _ := p.Word()
			d, err := time.ParseDuration(w)
			if err != nil || d <= 0 {
				return Request{}, fmt.Errorf("core: every needs a positive duration, got %q", w)
			}
			req.Period = d
		default:
			if err := p.Done(); err != nil {
				return Request{}, err
			}
			return req, nil
		}
	}
}

// validGroupKey accepts attribute-name identifiers; grouping by "*" or
// by predicate punctuation is rejected.
func validGroupKey(key string) bool {
	if key == "" || key == "*" {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}
