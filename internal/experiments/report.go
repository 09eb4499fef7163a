// Package experiments contains one driver per table/figure of the
// paper's evaluation (§7). Each driver builds the workload at paper (or
// caller-scaled) parameters on the simulated network, runs it, and
// returns a Table whose rows mirror the figure's series; every cell is
// virtual time or a count (wall-clock measurement belongs to bench/).
// cmd/moara-bench runs the drivers at paper or quick parameters.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// Title identifies the reproduced artifact (e.g. "Fig. 9").
	Title string
	// Note documents parameters and any scaling applied.
	Note string
	// Columns are the header labels.
	Columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = pad(c, w)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// WriteTSV renders tab-separated values (for plotting scripts).
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
