// Package stats provides the counters, geometric mean and table rendering
// used by every timing model and by the experiment harness.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Counters is a named set of monotonically increasing uint64 counters.
// A hot-path owner registers a Counter handle once, at construction, and
// bumps it directly; everyone else uses the name-keyed Add, Inc and Get.
// Both views share one cell per name. The zero value is ready to use.
type Counters struct {
	m map[string]*Counter
}

// Counter is one cell of a Counters set. A counter counts as touched —
// and is listed by Names — once it has been bumped, even by zero.
type Counter struct {
	v       uint64
	touched bool
}

// Add increments the counter by v.
func (k *Counter) Add(v uint64) {
	k.v += v
	k.touched = true
}

// Inc increments the counter by one.
func (k *Counter) Inc() { k.Add(1) }

// Handle returns the named counter's cell, creating it untouched if it
// does not exist yet. Registering a handle does not make the name appear
// in Names; bumping it does.
func (c *Counters) Handle(name string) *Counter {
	if k := c.m[name]; k != nil {
		return k
	}
	if c.m == nil {
		c.m = make(map[string]*Counter)
	}
	k := &Counter{}
	c.m[name] = k
	return k
}

// Add increments the named counter by v.
func (c *Counters) Add(name string, v uint64) { c.Handle(name).Add(v) }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.Handle(name).Inc() }

// Get returns the value of the named counter (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	if k := c.m[name]; k != nil {
		return k.v
	}
	return 0
}

// Names returns the names of all touched counters in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for name, k := range c.m {
		if k.touched {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// GeoMean returns the geometric mean of vs. All values must be positive:
// a non-positive value yields an error (not a panic — a single degenerate
// speedup ratio must not take down a whole experiment run). An empty
// slice returns zero with no error.
func GeoMean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0, fmt.Errorf("stats: GeoMean of non-positive value %v", v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs))), nil
}

// Table renders aligned rows for the experiment harness. Cells are strings;
// use Addf for formatted cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row of pre-rendered cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row, formatting each value with %v for strings/ints and
// trimmed %.3g-style formatting for floats.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case float32:
			row[i] = FormatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: 3 decimal places for small values,
// fewer for large ones.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table in aligned plain-text form.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV writes the table as comma-separated values (no quoting; cells in this
// repository never contain commas).
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}
