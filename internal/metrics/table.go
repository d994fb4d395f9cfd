package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table renders the text tables that the cmd/ binaries print when
// regenerating the thesis' tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; cells beyond the header count panic, shorter rows
// are padded.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		panic(fmt.Sprintf("metrics: row with %d cells exceeds %d headers", len(cells), len(t.Headers)))
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Fprint writes the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Sparkline renders values as a compact unicode sparkline, handy for
// eyeballing diurnal curves in terminal output.
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range vs {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
