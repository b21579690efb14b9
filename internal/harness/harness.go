// Package harness holds what the command-line front ends share: the
// registry of named checkable workloads every proc-model front end
// resolves its workload names through, the exit codes of the checking
// front ends, and the plain-text Table the CLIs print (nrlstat's
// profile tables and nrlbench's experiment tables, whose rows
// internal/bench measures).
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Exit codes of the checking front ends (nrlcheck, nrlsweep, nrlchaos,
// nrlrepl).
const (
	ExitClean     = 0 // every check passed
	ExitViolation = 1 // a check failed: an NRL violation, a degraded set
	ExitStuck     = 2 // a run livelocked, and nothing failed outright
	ExitUsage     = 3 // bad flags, or input that cannot be read
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "  (%s)\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
