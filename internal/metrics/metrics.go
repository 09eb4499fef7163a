// Package metrics provides the measurement utilities the experiment
// harness uses: latency recorders with mean and percentile extraction
// and millisecond formatting. Everything operates on virtual-time
// durations produced by the simulator.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Recorder accumulates duration samples.
type Recorder struct {
	samples []time.Duration
	sorted  bool
}

// NewRecorder creates an empty recorder with capacity hint n.
func NewRecorder(n int) *Recorder {
	return &Recorder{samples: make([]time.Duration, 0, n)}
}

// Add records one sample.
func (r *Recorder) Add(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Len returns the sample count.
func (r *Recorder) Len() int { return len(r.samples) }

func (r *Recorder) sortSamples() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Mean returns the average sample.
func (r *Recorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank.
func (r *Recorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// FormatMs renders a duration in fractional milliseconds.
func FormatMs(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// Ms converts a duration to float milliseconds.
func Ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
