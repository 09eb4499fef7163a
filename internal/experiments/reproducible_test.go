package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestFigureTablesReproducible runs figures twice under one seed and
// requires byte-identical rendered tables: every cell is virtual time
// or a message count, so nothing but the seed may move it. fig10,
// fig11b, fig13a and fig14 have no shape test; this is their executor.
// sketches is the order-sensitive one: its `standing p99(load)` cell
// holds still only while core merges child reports in child-id order.
func TestFigureTablesReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	figures := []struct {
		name string
		run  func() *Table
	}{
		{"fig10", func() *Table {
			return RunFig10(Fig10Options{
				N: 200, Events: 60, Burst: 40, Steps: 3,
				Pairs: [][2]int{{1, 3}, {3, 1}}, Seed: 1,
			})
		}},
		{"fig11b", func() *Table {
			return RunFig11b(Fig11bOptions{
				N: 512, GroupSizes: []int{8, 64}, Thresholds: []int{2, 4}, Queries: 50, Seed: 1,
			})
		}},
		{"fig13a", func() *Table {
			return RunFig13a(Fig13aOptions{N: 300, GroupSize: 100, Churn: 80, Interval: 5 * time.Second, Seconds: 40, Seed: 1})
		}},
		{"fig14", func() *Table {
			return RunFig14(Fig14Options{N: 100, GroupSizes: []int{50}, Queries: 20, Seed: 1})
		}},
		{"groupby", func() *Table {
			return RunGroupBy(GroupByOptions{N: 300, Slices: 16, Queries: 10, Seed: 1})
		}},
		{"standing", func() *Table {
			return RunStanding(StandingOptions{N: 300, Slices: 16, Epochs: 20, Period: 200 * time.Millisecond, Seed: 1})
		}},
		{"sketches", func() *Table {
			return RunSketches(SketchesOptions{N: 300, Cardinalities: []int{100, 1000}, Epochs: 6,
				Period: 200 * time.Millisecond, Seed: 1})
		}},
	}
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			first := f.run()
			if len(first.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			var a, b bytes.Buffer
			first.Fprint(&a)
			f.run().Fprint(&b)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("two runs under one seed differ:\n%s\n%s", a.String(), b.String())
			}
		})
	}
}
