package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestChurnShape asserts the churn study's acceptance bounds at reduced
// scale: a standing query at a 1%-of-nodes-per-epoch churn rate keeps
// mean completeness >= 0.95 against the harness's exact live count, and
// the targeted interior-kill repair restores full coverage within a few
// epochs of the purge landing — the subscription re-installs on the
// repaired tree within one epoch, plus one epoch per level of the
// orphaned subtree for the report pipeline to refill — and holds it.
func TestChurnShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	opt := ChurnOptions{N: 150, PerEpoch: []float64{0, 0.005, 0.01, 0.02}, Epochs: 30,
		Period: 200 * time.Millisecond, RecoverFrac: 0.5, Seed: 9}
	compl, _, wire := churnStandingRun(opt, 0.01, 0)
	t.Logf("standing @1%%/epoch: mean=%.3f min=%.3f wire/epoch=%.1f", compl.mean(), compl.min, wire)
	if compl.mean() < 0.95 {
		t.Errorf("standing mean completeness %.3f below 0.95 at 1%%/epoch churn", compl.mean())
	}
	if compl.min < 0.75 {
		t.Errorf("standing min completeness %.3f below 0.75", compl.min)
	}

	calm, _, _ := churnStandingRun(opt, 0, 0)
	if calm.mean() != 1 || calm.min != 1 {
		t.Errorf("churn-free run should be perfectly complete, got mean=%.3f min=%.3f", calm.mean(), calm.min)
	}

	repair, detect, held := churnRepairRun(opt, false)
	t.Logf("interior repair: dip=%.0f epochs, detect=%.0f epochs, held=%v", repair, detect, held)
	if repair > 4 {
		t.Errorf("interior-kill repair took %.0f epochs of reduced coverage (> 4)", repair)
	}
	if !held {
		t.Error("coverage did not hold after interior-kill repair")
	}
	if detect > 5 {
		t.Errorf("dip started %.0f epochs after the kill (stale window should bound it by ~5)", detect)
	}
}

// TestChurnOneShotCompletes asserts the one-shot side: every per-epoch
// query under churn completes and reports its (possibly partial)
// coverage rather than wedging.
func TestChurnOneShotCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	opt := ChurnOptions{N: 120, PerEpoch: []float64{0, 0.005, 0.01, 0.02}, Epochs: 20,
		Period: 200 * time.Millisecond, RecoverFrac: 0.5, Seed: 11}
	compl, latMs, _ := churnOneShotRun(opt, 0.01, 0)
	t.Logf("one-shot @1%%/epoch: mean=%.3f min=%.3f lat=%.1fms over %d rounds", compl.mean(), compl.min, latMs, compl.count)
	if compl.count != opt.Epochs {
		t.Fatalf("completed %d of %d rounds", compl.count, opt.Epochs)
	}
	if compl.mean() < 0.85 {
		t.Errorf("one-shot mean completeness %.3f below 0.85", compl.mean())
	}
}

// TestChurnZeroRecoverFrac checks that a zero RecoverFrac runs as zero,
// so every arrival is a fresh join: the table's note prints the value
// the run used.
func TestChurnZeroRecoverFrac(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	tab := RunChurn(ChurnOptions{N: 64, PerEpoch: []float64{0.01}, Epochs: 4,
		Period: 200 * time.Millisecond, RecoverFrac: 0, Seed: 1})
	if !strings.Contains(tab.Note, "(recover frac 0.0)") {
		t.Errorf("churn note does not report recover frac 0.0: %s", tab.Note)
	}
}
