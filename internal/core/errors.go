package core

import "errors"

// Typed sentinels for the public query boundary. Every failure a caller
// can branch on is wrapped around one of these, so call sites test with
// errors.Is instead of matching message strings:
//
//	if errors.Is(err, core.ErrParse) { ... }
//
// The root moara package re-exports them under the same names.
var (
	// ErrParse wraps every query-language parse failure (bad syntax,
	// unknown aggregate, malformed predicate, bad every-duration).
	ErrParse = errors.New("moara: parse error")

	// ErrNoMembers marks a request issued from a node that cannot reach
	// the cluster: the origin is down or the deployment has no live
	// members to route through. A query over an empty *group* is not an
	// error — it returns an empty Result.
	ErrNoMembers = errors.New("moara: no live members reachable")

	// ErrNotStanding marks a Subscribe of a request with no period: a
	// standing query needs an `every <duration>` clause.
	ErrNotStanding = errors.New("moara: not a standing query (missing 'every' clause)")

	// ErrStandingOnly marks an Execute/Query of a request that carries a
	// period: standing queries run via Subscribe, not Execute.
	ErrStandingOnly = errors.New("moara: standing query must run via Subscribe")

	// ErrUnknownSub marks an Unsubscribe (or renewal) naming a subscription
	// this front-end does not hold — already torn down, or never
	// installed here.
	ErrUnknownSub = errors.New("moara: unknown subscription")

	// ErrOverload is returned by the query-service admission layer when
	// a tenant's token bucket is exhausted or the service queue is at
	// capacity; the request was shed, not executed.
	ErrOverload = errors.New("moara: overloaded (request shed by admission control)")
)
