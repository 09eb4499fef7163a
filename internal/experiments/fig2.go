package experiments

import (
	"fmt"
	"math/rand"

	"github.com/moara/moara/internal/workload"
)

// Fig2aOptions parameterize the slice-usage trace synthesis.
type Fig2aOptions struct {
	Slices   int // paper: ~400 PlanetLab slices
	MaxNodes int // paper: several hundred
	Seed     int64
}

// RunFig2a regenerates Fig. 2(a): PlanetLab slice sizes by rank,
// assigned vs in use. The paper's CoTop snapshot is proprietary; the
// synthesizer matches its published shape (about half of all slices
// under 10 assigned nodes; in-use counts a thinned subset).
func RunFig2a(opt Fig2aOptions) *Table {
	rng := rand.New(rand.NewSource(opt.Seed))
	slices := workload.SliceSizes(rng, opt.Slices, opt.MaxNodes)
	t := &Table{
		Title:   "Fig. 2(a): PlanetLab slice usage (synthetic)",
		Note:    fmt.Sprintf("%d slices, max %d nodes", opt.Slices, opt.MaxNodes),
		Columns: []string{"rank", "assigned", "in_use"},
	}
	for _, rank := range []int{1, 2, 5, 10, 20, 50, 100, 200, 300, opt.Slices} {
		if rank > len(slices) {
			continue
		}
		s := slices[rank-1]
		t.AddRow(itoa(rank), itoa(s.Assigned), itoa(s.InUse))
	}
	under10 := 0
	for _, s := range slices {
		if s.Assigned < 10 {
			under10++
		}
	}
	t.Note += fmt.Sprintf("; %d%% of slices under 10 assigned nodes", 100*under10/len(slices))
	return t
}

// Fig2bOptions parameterize the utility-computing job trace synthesis.
type Fig2bOptions struct {
	Minutes int // paper: 20-hour window
	Peak    int // paper: ~160 machines
	Seed    int64
}

// RunFig2b regenerates Fig. 2(b): machines used over time by two
// animation-rendering batch jobs (synthetic stand-in for HP's
// proprietary 6-month utility-computing trace).
func RunFig2b(opt Fig2bOptions) *Table {
	rng := rand.New(rand.NewSource(opt.Seed))
	job0 := workload.RenderingJob(rng, 0, opt.Minutes, opt.Peak)
	job1 := workload.RenderingJob(rng, opt.Minutes/4, opt.Minutes/2, opt.Peak/2)
	t := &Table{
		Title:   "Fig. 2(b): utility-computing job machine usage (synthetic)",
		Note:    fmt.Sprintf("%d-minute window, peaks %d/%d machines", opt.Minutes, opt.Peak, opt.Peak/2),
		Columns: []string{"time_min", "job0", "job1"},
	}
	for m := 0; m <= opt.Minutes; m += 60 {
		t.AddRow(itoa(m), itoa(workload.MachinesAt(job0, m)), itoa(workload.MachinesAt(job1, m)))
	}
	return t
}
