package metrics

import (
	"testing"
	"time"
)

func fill(r *Recorder, ms ...int) {
	for _, m := range ms {
		r.Add(time.Duration(m) * time.Millisecond)
	}
}

func TestRecorderStats(t *testing.T) {
	r := NewRecorder(8)
	fill(r, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	if r.Len() != 10 {
		t.Fatalf("len = %d", r.Len())
	}
	if got := r.Mean(); got != 55*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("median = %v", got)
	}
	if got := r.Percentile(90); got != 90*time.Millisecond {
		t.Fatalf("p90 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if lo, hi := r.Percentile(1), r.Percentile(100); lo != 10*time.Millisecond || hi != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", lo, hi)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder(0)
	if r.Mean() != 0 || r.Percentile(50) != 0 || r.Percentile(100) != 0 || r.Percentile(1) != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestFormatMs(t *testing.T) {
	if got := FormatMs(1500 * time.Microsecond); got != "1.5" {
		t.Fatalf("FormatMs = %q", got)
	}
	if got := Ms(2 * time.Second); got != 2000 {
		t.Fatalf("Ms = %v", got)
	}
}

func TestAddAfterSortKeepsOrder(t *testing.T) {
	r := NewRecorder(4)
	fill(r, 30, 10)
	_ = r.Percentile(50) // forces sort
	fill(r, 20)
	if got := r.Percentile(50); got != 20*time.Millisecond {
		t.Fatalf("median after resort = %v", got)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
}
