package experiments

import (
	"regexp"
	"testing"
)

// TestFigures checks the registry moara-bench runs: every name is
// unique and usable as a -tsv file name, every row says what it
// plots, and the two instant figures give a table under both
// profiles.
func TestFigures(t *testing.T) {
	fileName := regexp.MustCompile(`^[a-z0-9]+$`)
	seen := map[string]bool{}
	for _, f := range Figures {
		if !fileName.MatchString(f.Name) {
			t.Errorf("figure name %q does not match %s", f.Name, fileName)
		}
		if seen[f.Name] {
			t.Errorf("figure name %q is declared twice", f.Name)
		}
		seen[f.Name] = true
		if f.Desc == "" {
			t.Errorf("figure %q has no description", f.Name)
		}
	}
	ran := 0
	for _, f := range Figures {
		if f.Name != "fig2a" && f.Name != "fig2b" {
			continue
		}
		for _, quick := range []bool{false, true} {
			if tab := f.Run(quick); len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Errorf("%s (quick=%v) gave an empty table", f.Name, quick)
			}
			ran++
		}
	}
	if ran != 4 {
		t.Errorf("ran %d of fig2a and fig2b's 4 profile runs", ran)
	}
}
