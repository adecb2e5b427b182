package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"unicode/utf8"
)

// Report is one experiment table ready for output. Rows is a slice of
// one row struct: each exported field is a column named by its json tag
// (the field name when the tag has none; "-" skips the field) and
// rendered in text and CSV with the fmt.Sprintf verb of its fmt tag
// (%v when absent). JSON keeps full precision and honours omitempty;
// text and CSV print every column, zero values included.
type Report struct {
	// ID names the report; it is also the stem of its CSV file.
	ID    string `json:"id"`
	Title string `json:"title"`
	Rows  any    `json:"rows"`
	// Notes are summary lines printed under the text table.
	Notes []string `json:"notes"`
}

// cells renders r.Rows as a header and one record per row, and reports
// which columns are numeric (right-aligned in text).
func (r Report) cells() (header []string, records [][]string, numeric []bool) {
	rows := reflect.ValueOf(r.Rows)
	typ := rows.Type().Elem()
	var fields []int
	var verbs []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		verb := f.Tag.Get("fmt")
		if verb == "" {
			verb = "%v"
		}
		header = append(header, name)
		fields = append(fields, i)
		verbs = append(verbs, verb)
		k := f.Type.Kind()
		numeric = append(numeric, k != reflect.String && k != reflect.Bool)
	}
	for i := 0; i < rows.Len(); i++ {
		rec := make([]string, len(fields))
		for j, fi := range fields {
			rec[j] = fmt.Sprintf(verbs[j], rows.Index(i).Field(fi).Interface())
		}
		records = append(records, rec)
	}
	return header, records, numeric
}

// Text renders r as a titled, column-aligned table followed by its notes.
func (r Report) Text(w io.Writer) error {
	header, records, numeric := r.cells()
	lines := append([][]string{header}, records...)
	width := make([]int, len(header))
	for _, rec := range lines {
		for j, c := range rec {
			width[j] = max(width[j], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n\n", r.ID, r.Title)
	for _, rec := range lines {
		var line strings.Builder
		for j, c := range rec {
			pad := strings.Repeat(" ", width[j]-utf8.RuneCountInString(c))
			if j > 0 {
				line.WriteString("  ")
			}
			if numeric[j] {
				line.WriteString(pad + c)
			} else {
				line.WriteString(c + pad)
			}
		}
		b.WriteString(strings.TrimRight(line.String(), " ") + "\n")
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n" + strings.Join(r.Notes, "\n") + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV renders r as a header line of column names and one record per row.
func (r Report) CSV(w io.Writer) error {
	header, records, _ := r.cells()
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	return cw.WriteAll(records)
}

// EncodeJSON renders reports as one indented JSON array of
// {id, title, rows, notes} objects.
func EncodeJSON(w io.Writer, reports []Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
