package experiments

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spmap/internal/mapping"
	"spmap/internal/pareto"
)

// sampleRow covers every kind of column a row struct uses.
type sampleRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Ratio float64 `json:"ratio" fmt:"%.3f"`
	Raw   float64 `json:"raw"`
	OK    bool    `json:"ok"`
	Extra int     `json:"extra,omitempty"`
	Skip  int     `json:"-"`
}

// TestReport pins the three renderings of one report: text aligns
// string columns left and numeric ones right, CSV's header is the json
// names and zero values print in both, and the JSON decodes back.
func TestReport(t *testing.T) {
	cases := []struct {
		name      string
		rows      []sampleRow
		notes     []string
		text, csv string
	}{
		{
			name:  "mixed",
			rows:  []sampleRow{{"a", 1, 0.5, 0.25, true, 7, 9}, {"long-name", 1234, 12.3456, 1e-9, false, 0, 0}},
			notes: []string{"summary: 2 rows"},
			text: "# demo — Demo report\n\n" +
				"name       count   ratio    raw  ok     extra\n" +
				"a              1   0.500   0.25  true       7\n" +
				"long-name   1234  12.346  1e-09  false      0\n" +
				"\nsummary: 2 rows\n",
			csv: "name,count,ratio,raw,ok,extra\n" +
				"a,1,0.500,0.25,true,7\n" +
				"long-name,1234,12.346,1e-09,false,0\n",
		},
		{
			name: "zero values",
			rows: []sampleRow{{}},
			text: "# demo — Demo report\n\n" +
				"name  count  ratio  raw  ok     extra\n" +
				"          0  0.000    0  false      0\n",
			csv: "name,count,ratio,raw,ok,extra\n" +
				",0,0.000,0,false,0\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Report{ID: "demo", Title: "Demo report", Rows: tc.rows, Notes: tc.notes}
			var text, csvOut, js strings.Builder
			if err := r.Text(&text); err != nil {
				t.Fatal(err)
			}
			if text.String() != tc.text {
				t.Errorf("text:\n%s\nwant:\n%s", text.String(), tc.text)
			}
			if err := r.CSV(&csvOut); err != nil {
				t.Fatal(err)
			}
			if csvOut.String() != tc.csv {
				t.Errorf("csv:\n%s\nwant:\n%s", csvOut.String(), tc.csv)
			}
			if err := EncodeJSON(&js, []Report{r}); err != nil {
				t.Fatal(err)
			}
			var back []struct {
				ID    string      `json:"id"`
				Title string      `json:"title"`
				Rows  []sampleRow `json:"rows"`
				Notes []string    `json:"notes"`
			}
			if err := json.Unmarshal([]byte(js.String()), &back); err != nil {
				t.Fatalf("json does not decode: %v\n%s", err, js.String())
			}
			want := append([]sampleRow(nil), tc.rows...)
			for i := range want {
				want[i].Skip = 0 // json:"-" is not rendered
			}
			if len(back) != 1 || back[0].ID != "demo" || back[0].Title != "Demo report" ||
				!reflect.DeepEqual(back[0].Rows, want) || !reflect.DeepEqual(back[0].Notes, tc.notes) {
				t.Errorf("json round trip: %+v\n%s", back, js.String())
			}
			if strings.Contains(js.String(), `"extra": 0`) {
				t.Errorf("omitempty zero rendered in json:\n%s", js.String())
			}
		})
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{
		ID: "figX", Title: "Demo", XLabel: "tasks",
		Series: []*Series{
			{Name: "A", Points: []Point{{X: 5, Improvement: 0.1, TimeMS: 2, Found: 1}, {X: 10, Improvement: 0.3, TimeMS: 8, Found: 1}}},
			{Name: "B", Points: []Point{{X: 5, Improvement: 0.2, TimeMS: 4, Found: 0.5}}},
		},
	}
	r := tab.Report()
	if r.ID != "figX" || r.Title != "Demo; x = tasks" {
		t.Fatalf("report id %q title %q", r.ID, r.Title)
	}
	var sb strings.Builder
	if err := r.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	// Long form, x ascending, the series of one x adjacent.
	want := "experiment,series,x,improvement,time_ms,found\n" +
		"figX,A,5,0.100000,2.0000,1.000\n" +
		"figX,B,5,0.200000,4.0000,0.500\n" +
		"figX,A,10,0.300000,8.0000,1.000\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// table1Rows runs the Table I reproduction once for the tests reading it.
var table1Rows = sync.OnceValue(func() []WFRow { return Table1(tinyCfg()) })

// TestWriteCSVTable1 pins table1.csv as reproducible: two writes of the
// same rows are byte-identical and list each set's algorithms in
// Table1's order.
func TestWriteCSVTable1(t *testing.T) {
	r := Report{ID: "table1", Rows: table1Rows()}
	var first, second strings.Builder
	if err := r.CSV(&first); err != nil {
		t.Fatal(err)
	}
	if err := r.CSV(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("two writes of the same rows differ:\n%s\n---\n%s", first.String(), second.String())
	}
	recs, err := csv.NewReader(strings.NewReader(first.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(recs[0], ","); got != "set,tasks,algorithm,improvement,total_time_ms" {
		t.Fatalf("header %q", got)
	}
	algos := []string{"HEFT", "PEFT", "NSGAII", "SNFirstFit", "SPFirstFit"}
	for i, rec := range recs[1:] {
		if want := algos[i%len(algos)]; rec[2] != want {
			t.Fatalf("row %d (%s): algorithm %q, want %q", i, rec[0], rec[2], want)
		}
	}
}

// failingWriter errors after budget bytes — a full disk or closed pipe
// stand-in. The csv package buffers rows, so only exporters that check
// Flush()/Error() surface the failure.
type failingWriter struct{ budget int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errDiskFull
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestCSVExportersPropagateWriteErrors drives every exporter against
// writers that fail at various points (immediately, mid-table) and
// asserts the error is propagated rather than swallowed — a truncated
// results file must never look like a success.
func TestCSVExportersPropagateWriteErrors(t *testing.T) {
	tab := &Table{
		ID: "figX", XLabel: "tasks",
		Series: []*Series{
			{Name: "A", Points: []Point{{X: 5, Improvement: 0.1, TimeMS: 2, Found: 1}}},
			{Name: "B", Points: []Point{{X: 5, Improvement: 0.2, TimeMS: 4, Found: 0.5}}},
		},
	}
	pr := Report{ID: "pareto", Rows: []ParetoRow{{Tasks: 25, Algorithm: "Sweep", Hypervolume: 0.5, FrontSize: 3}}}
	front := pareto.Front{pareto.NewPoint([]float64{1, 2}, mapping.Mapping{0, 1, 2})}

	exporters := []struct {
		name string
		run  func(w *failingWriter) error
	}{
		{"Report.CSV (table)", func(w *failingWriter) error { return tab.Report().CSV(w) }},
		{"Report.CSV (rows)", func(w *failingWriter) error { return pr.CSV(w) }},
		{"Report.Text", func(w *failingWriter) error { return pr.Text(w) }},
		{"EncodeJSON", func(w *failingWriter) error { return EncodeJSON(w, []Report{tab.Report(), pr}) }},
		{"WriteCSVFront", func(w *failingWriter) error { return WriteCSVFront(w, front) }},
	}
	for _, ex := range exporters {
		for _, budget := range []int{0, 10} {
			if err := ex.run(&failingWriter{budget: budget}); !errors.Is(err, errDiskFull) {
				t.Errorf("%s with write budget %d: error %v, want the writer's failure",
					ex.name, budget, err)
			}
		}
	}
}
