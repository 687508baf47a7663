package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"text/tabwriter"
	"time"
)

// units maps each column unit to a zero value of the Go type its cells
// hold; Column.format says how each renders.
var units = map[string]any{
	"text":  "",
	"ns":    time.Duration(0),
	"B":     int64(0),
	"count": int64(0),
	"ratio": Frac{},
	"%":     0.0,
	"float": 0.0,
}

// Column is one named, typed table column. Missing is what a missing
// (nil) cell renders as; "" means "-".
type Column struct {
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	Digits  int    `json:"digits,omitempty"`
	Missing string `json:"missing,omitempty"`
}

// Column constructors, one per unit. Ratio, Percent (50 is 50%) and Float
// render to digits decimals.
func Text(name string) Column                { return Column{name, "text", 0, ""} }
func Dur(name string) Column                 { return Column{name, "ns", 0, ""} }
func Bytes(name string) Column               { return Column{name, "B", 0, ""} }
func Count(name string) Column               { return Column{name, "count", 0, ""} }
func Ratio(name string, digits int) Column   { return Column{name, "ratio", digits, ""} }
func Percent(name string, digits int) Column { return Column{name, "%", digits, ""} }
func Float(name string, digits int) Column   { return Column{name, "float", digits, ""} }

// Frac is a ratio cell's raw value: Num over Den.
type Frac struct {
	Num int64 `json:"num"`
	Den int64 `json:"den"`
}

// Over is the ratio a/b of two durations.
func Over(a, b time.Duration) Frac { return Frac{int64(a), int64(b)} }

// Format renders the ratio as "N.Nx" to digits decimals, or "inf" when
// the denominator is zero.
func (f Frac) Format(digits int) string {
	if f.Den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.*fx", digits, float64(f.Num)/float64(f.Den))
}

// cell returns v as the type the column holds (any integer is an int64);
// ok is false when v does not fit the column.
func (c Column) cell(v any) (any, bool) {
	switch n := v.(type) {
	case nil:
		return nil, true
	case int:
		v = int64(n)
	case uint64:
		v = int64(n)
	}
	zero, known := units[c.Unit]
	return v, known && reflect.TypeOf(v) == reflect.TypeOf(zero)
}

// format renders one cell of the column.
func (c Column) format(v any) string {
	if v == nil {
		if c.Missing != "" {
			return c.Missing
		}
		return "-"
	}
	switch c.Unit {
	case "ns":
		return FormatDuration(v.(time.Duration))
	case "B":
		return FormatBytes(v.(int64))
	case "ratio":
		return v.(Frac).Format(c.Digits)
	case "%":
		return fmt.Sprintf("%.*f%%", c.Digits, v)
	case "float":
		return fmt.Sprintf("%.*f", c.Digits, v)
	}
	return fmt.Sprint(v)
}

// decode reads one JSON cell of the column strictly.
func (c Column) decode(raw json.RawMessage) (any, error) {
	zero, ok := units[c.Unit]
	if !ok {
		return nil, fmt.Errorf("unknown unit %q", c.Unit)
	}
	if string(raw) == "null" {
		return nil, nil
	}
	p := reflect.New(reflect.TypeOf(zero))
	err := strictDecode(raw, p.Interface())
	return p.Elem().Interface(), err
}

// Table is a titled table of typed cells. Each cell keeps its raw value
// and is formatted by its column only when the table is rendered.
type Table struct {
	Title   string   `json:"title"`
	Columns []Column `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// NewTable returns an empty table with the given title and columns.
func NewTable(title string, columns ...Column) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of raw values, one per column, each of the type
// its column holds (string, time.Duration, an integer, Frac or float64),
// or nil for a missing cell. A row that does not fit panics.
func (t *Table) AddRow(cells ...any) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: table %q: %d cells for %d columns", t.Title, len(cells), len(t.Columns)))
	}
	row := make([]any, len(cells))
	for i, v := range cells {
		var ok bool
		if row[i], ok = t.Columns[i].cell(v); !ok {
			panic(fmt.Sprintf("report: table %q column %+v: cell %#v", t.Title, t.Columns[i], v))
		}
	}
	t.Rows = append(t.Rows, row)
}

// Cell returns the raw value in the named column of row; it panics on an
// unknown column.
func (t *Table) Cell(row int, column string) any {
	for i, c := range t.Columns {
		if c.Name == column {
			return t.Rows[row][i]
		}
	}
	panic(fmt.Sprintf("report: table %q has no column %q", t.Title, column))
}

// String renders the table as column-aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	names := make([]string, len(t.Columns))
	dashes := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i], dashes[i] = c.Name, strings.Repeat("-", len(c.Name))
	}
	fmt.Fprintln(w, strings.Join(names, "\t"))
	fmt.Fprintln(w, strings.Join(dashes, "\t"))
	for _, row := range t.Rows {
		for i, c := range t.Columns {
			names[i] = c.format(row[i])
		}
		fmt.Fprintln(w, strings.Join(names, "\t"))
	}
	w.Flush()
	return sb.String()
}

// UnmarshalJSON decodes a table strictly: every row has one cell per
// column, of the type the column's unit holds.
func (t *Table) UnmarshalJSON(data []byte) error {
	var raw struct {
		Title   string              `json:"title"`
		Columns []Column            `json:"columns"`
		Rows    [][]json.RawMessage `json:"rows"`
	}
	if err := strictDecode(data, &raw); err != nil {
		return err
	}
	*t = Table{Title: raw.Title, Columns: raw.Columns}
	for r, cells := range raw.Rows {
		if len(cells) != len(t.Columns) {
			return fmt.Errorf("table %q row %d: %d cells for %d columns", t.Title, r, len(cells), len(t.Columns))
		}
		row := make([]any, len(cells))
		for i, c := range t.Columns {
			var err error
			if row[i], err = c.decode(cells[i]); err != nil {
				return fmt.Errorf("table %q row %d column %q: %w", t.Title, r, c.Name, err)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return nil
}

// strictDecode decodes data into v, rejecting fields v does not have.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FormatDuration renders d with a sensible unit and 3-4 significant
// figures, matching the µs/ms scales in the paper.
func FormatDuration(d time.Duration) string {
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// FormatBytes renders a byte count as B, K (KiB) or M (MiB), rounded down.
func FormatBytes(n int64) string {
	switch {
	case n < 1024:
		return fmt.Sprintf("%dB", n)
	case n < 1024*1024:
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%dM", n/(1024*1024))
}
