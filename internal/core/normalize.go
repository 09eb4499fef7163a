package core

import (
	"fmt"
	"strings"

	"github.com/moara/moara/internal/predicate"
)

// NormalizeRequest rewrites req into the canonical form the query
// service keys on: the predicate is normalized (flattened, deduplicated,
// redundant terms folded — see predicate.Normalize), and the
// attribute/group-by names are whitespace-trimmed. Two requests that
// normalize equal are the same query: same answer, same tree state,
// same sample stream.
func NormalizeRequest(req Request) Request {
	req.Attr = strings.TrimSpace(req.Attr)
	req.GroupBy = strings.TrimSpace(req.GroupBy)
	req.Pred = predicate.Normalize(req.Pred)
	return req
}

// CanonicalKey renders the normalized request as a string key for the
// result cache and the subsumption registry. The period participates:
// two standing queries only share a stream when they tick on the same
// grid. One-shot requests (Period == 0) render with "once".
func CanonicalKey(req Request) string {
	req = NormalizeRequest(req)
	period := "once"
	if req.Period > 0 {
		period = req.Period.String()
	}
	pred := ""
	if req.Pred != nil {
		pred = req.Pred.Canon()
	}
	return fmt.Sprintf("%s(%s)|by:%s|where:%s|every:%s",
		req.Spec, req.Attr, req.GroupBy, pred, period)
}

// FormatRequest renders a request back to query-language text that
// re-parses to the same request. The query-service front-end uses it
// to install normalized requests on text-only backends.
func FormatRequest(req Request) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)", req.Spec, req.Attr)
	if req.GroupBy != "" {
		fmt.Fprintf(&b, " group by %s", req.GroupBy)
	}
	if req.Pred != nil {
		fmt.Fprintf(&b, " where %s", req.Pred)
	}
	if req.Period > 0 {
		// A sub-millisecond Duration prints "µs", which is not a word of
		// the query language; "us" is the same unit to ParseDuration.
		fmt.Fprintf(&b, " every %s", strings.Replace(req.Period.String(), "µ", "u", 1))
	}
	return b.String()
}
