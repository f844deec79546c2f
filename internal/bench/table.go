package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// table is one experiment's numbers: a title, columns and rows. An
// experiment's builder fills it through the Runner's run calls; the text
// harness prints it and the experiment's chart, if it has one, plots it,
// so each figure's numbers are computed in one place.
type table struct {
	title string
	cols  []column
	rows  [][]cell
}

// column is one table column: its header and, for a numeric column, the
// printf verb its values print with. A column without a verb holds labels.
type column struct {
	name, verb string
}

// cell is one table entry: label in a label column, num in a numeric one.
type cell struct {
	label string
	num   float64
}

// labels returns label columns with the given headers.
func labels(names ...string) []column { return nums("", names...) }

// nums returns numeric columns with the given headers, printed with verb.
func nums(verb string, names ...string) []column {
	cols := make([]column, len(names))
	for i, n := range names {
		cols[i] = column{n, verb}
	}
	return cols
}

// newTable starts an empty table whose columns are the groups in order.
func newTable(title string, groups ...[]column) *table {
	t := &table{title: title}
	for _, g := range groups {
		t.cols = append(t.cols, g...)
	}
	return t
}

// add appends one row: a string for each label column and a float64 for
// each numeric one. Any other shape is a mistake in the builder.
func (t *table) add(vals ...any) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("bench: %s: row of %d cells for %d columns", t.title, len(vals), len(t.cols)))
	}
	row := make([]cell, len(vals))
	for i, v := range vals {
		ok := false
		switch v := v.(type) {
		case string:
			row[i].label, ok = v, t.cols[i].verb == ""
		case float64:
			row[i].num, ok = v, t.cols[i].verb != ""
		}
		if !ok {
			panic(fmt.Sprintf("bench: %s: column %q cannot hold %v (%T)", t.title, t.cols[i].name, v, v))
		}
	}
	t.rows = append(t.rows, row)
}

// col returns the index of the column named name. A name the table lacks
// is a mistake in a chart declaration.
func (t *table) col(name string) int {
	for i, c := range t.cols {
		if c.name == name {
			return i
		}
	}
	panic(fmt.Sprintf("bench: %s: no column %q", t.title, name))
}

// text is one cell as the text harness prints it.
func (c column) text(x cell) string {
	if c.verb == "" {
		return x.label
	}
	return fmt.Sprintf(c.verb, x.num)
}

// writeText prints the table: a "=== title ===" line, the header line
// (none when no column is named, as in Table 1's list of settings), then
// the rows, in columns aligned by a tabwriter.
func (t *table) writeText(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s ===\n", t.title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	line := make([]string, len(t.cols))
	for i, c := range t.cols {
		line[i] = c.name
	}
	if strings.Join(line, "") != "" {
		io.WriteString(tw, strings.Join(line, "\t")+"\n")
	}
	for _, row := range t.rows {
		for i, c := range t.cols {
			line[i] = c.text(row[i])
		}
		io.WriteString(tw, strings.Join(line, "\t")+"\n")
	}
	tw.Flush()
}
