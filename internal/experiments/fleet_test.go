package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

// TestFleetComparisonQuick runs the experiment at toy scale and checks
// the section structure, the built-in gates and the writers.
func TestFleetComparisonQuick(t *testing.T) {
	cfg := Config{GraphsPerPoint: 6, Seed: 3}
	rows, err := FleetComparison(cfg, "")
	if err != nil {
		t.Fatalf("FleetComparison: %v", err)
	}
	// 4 shard-sweep rows + 4 cadence rows + interrupted + resumed.
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	sections := map[string]int{}
	for _, r := range rows {
		sections[r.Section]++
		if r.Streams != 6 {
			t.Fatalf("row %s/%s has %d streams, want 6", r.Section, r.Label, r.Streams)
		}
	}
	if sections["shard-sweep"] != 4 || sections["cadence-sweep"] != 4 || sections["resume-verify"] != 2 {
		t.Fatalf("section counts: %v", sections)
	}
	if rows[0].Label != "shards=1" || rows[0].Speedup != 1 {
		t.Fatalf("baseline shard row: %+v", rows[0])
	}
	last := rows[len(rows)-1]
	if last.Label != "resumed" || last.TraceMatches != 6 || last.Resumed != 6 {
		t.Fatalf("resume row: %+v", last)
	}
	for _, r := range rows {
		if r.Section == "cadence-sweep" && r.Cadence > 0 && r.Checkpoints == 0 {
			t.Fatalf("cadence row %s wrote no checkpoints", r.Label)
		}
	}

	r := Report{ID: "fleet", Rows: rows, Notes: FleetNotes(rows)}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(rows)+1 || recs[0][0] != "section" {
		t.Fatalf("csv rows: %d", len(recs))
	}

	buf.Reset()
	if err := EncodeJSON(&buf, []Report{r}); err != nil {
		t.Fatal(err)
	}
	var back []struct {
		Rows []FleetRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Rows) != len(rows) || back[0].Rows[len(rows)-1].TraceMatches != 6 {
		t.Fatalf("json round-trip: %s", buf.String())
	}

	buf.Reset()
	if err := r.Text(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n\nresume-verify: 6/6 resumed traces identical to the uninterrupted reference (6 streams restored from checkpoints)\n") {
		t.Fatalf("text output missing verification line:\n%s", buf.String())
	}
}

// TestFleetComparisonDirStoreResume pins the persistent-store path: a
// second invocation over the same directory resumes every stream from
// its completed checkpoint and still verifies.
func TestFleetComparisonDirStoreResume(t *testing.T) {
	cfg := Config{GraphsPerPoint: 4, Seed: 9}
	dir := t.TempDir()
	if _, err := FleetComparison(cfg, dir); err != nil {
		t.Fatalf("first run: %v", err)
	}
	rows, err := FleetComparison(cfg, dir)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	last := rows[len(rows)-1]
	if last.TraceMatches != 4 || last.Resumed != 4 {
		t.Fatalf("second-run resume row: %+v", last)
	}
	// Completed checkpoints resume at the final cursor: no events apply.
	if last.Events != 0 {
		t.Fatalf("second run re-applied %d events, want 0", last.Events)
	}
}
