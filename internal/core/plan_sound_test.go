package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/value"
)

// planLiterals are the thresholds of TestPlanCoversReachEverySatisfyingNode:
// finite numbers, ints at 2^53 and 2^53+1 and the float both round to,
// NaN, ±Inf, strings and bools.
var planLiterals = []string{
	"0", "3", "4.5", "5", "7", "9007199254740992", "9007199254740993",
	"9007199254740992.0", "nan", "inf", "-inf", "linux", "bsd", "true", "false",
}

// planStored is what a node may hold in one attribute; the invalid
// Value is a missing attribute.
var planStored = []string{
	"4", "5", "9007199254740993", "9007199254740992.0", "nan", "inf", "-inf", "linux", "true", "",
}

func parseValues(t *testing.T, toks []string) []value.Value {
	out := make([]value.Value, len(toks))
	for i, tok := range toks {
		if tok == "" {
			continue
		}
		v, err := value.Parse(tok)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func randomPlanPred(rng *rand.Rand, lits []value.Value, depth int) predicate.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		ops := []predicate.Op{predicate.OpLT, predicate.OpGT, predicate.OpLE, predicate.OpGE, predicate.OpEQ, predicate.OpNE}
		return predicate.Simple{
			Attr: []string{"x", "y"}[rng.Intn(2)],
			Op:   ops[rng.Intn(len(ops))],
			Val:  lits[rng.Intn(len(lits))],
		}
	}
	terms := make([]predicate.Expr, 2+rng.Intn(2))
	for i := range terms {
		terms[i] = randomPlanPred(rng, lits, depth-1)
	}
	if rng.Intn(2) == 0 {
		return predicate.And{Terms: terms}
	}
	return predicate.Or{Terms: terms}
}

// TestPlanCoversReachEverySatisfyingNode checks the planner's reductions
// against Eval on edge values: a satisfiable predicate never gets an
// empty plan, and every cover holds a group each satisfying assignment
// belongs to.
func TestPlanCoversReachEverySatisfyingNode(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	lits, stored := parseValues(t, planLiterals), parseValues(t, planStored)
	empty, missed := 0, 0
	for trial := 0; trial < 3000; trial++ {
		pred := randomPlanPred(rng, lits, 3)
		plan := buildPlan("v", pred, 0)
		if miss := planMiss(plan, pred, stored); miss != "" {
			if plan.empty {
				empty++
			} else {
				missed++
			}
			if empty+missed <= 5 {
				t.Errorf("%v: %s", pred, miss)
			}
		}
	}
	if empty > 0 || missed > 0 {
		t.Fatalf("%d satisfiable predicates got an empty plan; %d plans had a cover that missed a satisfying node", empty, missed)
	}
}

// planMiss names the first satisfying assignment of x and y, over the
// stored values, that the plan does not reach, or returns "".
func planMiss(plan queryPlan, pred predicate.Expr, stored []value.Value) string {
	for _, x := range stored {
		for _, y := range stored {
			g := predicate.GetterFunc(func(name string) value.Value {
				if name == "x" {
					return x
				}
				return y
			})
			if !pred.Eval(g) {
				continue
			}
			if plan.empty {
				return fmt.Sprintf("empty plan, but x = %v, y = %v satisfies it", x, y)
			}
			for _, cover := range plan.covers {
				if !coverHolds(cover, g) {
					return fmt.Sprintf("cover %s misses x = %v, y = %v", coverKey(cover), x, y)
				}
			}
		}
	}
	return ""
}

func coverHolds(cover []groupSpec, g predicate.Getter) bool {
	for _, grp := range cover {
		if grp.expr == nil || grp.expr.Eval(g) {
			return true
		}
	}
	return false
}
