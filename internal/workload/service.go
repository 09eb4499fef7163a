package workload

import (
	"fmt"
	"time"
)

// ServiceQueries generates the Q ≫ forms query-service workload: q
// standing-query texts spanning exactly forms distinct normalized
// forms. Query i targets form i%forms, so the forms interleave the way
// a live population of dashboards would, and each text is rendered in
// one of four syntactic variants — whitespace, duplicated predicate
// terms, associativity noise, alternate period units — that all
// normalize to the same canonical key. A query service with subsumption
// sharing should install forms subscriptions for the q requests; a
// service without it installs q.
//
// Forms are (aggregate, slice-filter) pairs over the slice attribute
// AssignSlices populates: form f filters on slice s<f%nSlices> with
// aggregate f/nSlices, so forms stay distinct while f <= 4*nSlices.
func ServiceQueries(q, forms, nSlices int, period time.Duration) []string {
	if forms < 1 {
		forms = 1
	}
	if nSlices < 1 {
		nSlices = 1
	}
	if max := 4 * nSlices; forms > max {
		forms = max
	}
	out := make([]string, q)
	for i := range out {
		out[i] = serviceVariant(i%forms, i/forms, nSlices, period)
	}
	return out
}

var serviceSpecs = [4]string{"avg(mem_util)", "sum(mem_util)", "count(*)", "max(mem_util)"}

// serviceVariant renders form f in syntactic style (variant 0 is the
// canonical rendering). Every style parses and normalizes to the same
// canonical key — the shape test proves it.
func serviceVariant(f, style, nSlices int, period time.Duration) string {
	spec := serviceSpecs[(f/nSlices)%len(serviceSpecs)]
	slice := fmt.Sprintf("s%d", f%nSlices)
	altPeriod := fmt.Sprintf("%gs", period.Seconds()) // e.g. 200ms -> "0.2s"
	switch style % 4 {
	case 1: // whitespace noise + alternate period unit
		return fmt.Sprintf("%s  where  slice = %s  every %s", spec, slice, altPeriod)
	case 2: // duplicated predicate term
		return fmt.Sprintf("%s where slice = %s and slice = %s every %s", spec, slice, slice, period)
	case 3: // associativity noise
		return fmt.Sprintf("%s where slice = %s and (slice = %s and slice = %s) every %s",
			spec, slice, slice, slice, altPeriod)
	default:
		return fmt.Sprintf("%s where slice = %s every %s", spec, slice, period)
	}
}
