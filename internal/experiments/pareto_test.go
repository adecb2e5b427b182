package experiments

import (
	"strings"
	"testing"
)

func TestParetoComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep; run without -short")
	}
	cfg := tinyCfg()
	rows := ParetoComparison(cfg)
	if len(rows) != 6 { // 3 sizes x {Sweep, NSGA2}
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Algorithm != "Sweep" && r.Algorithm != "NSGA2" {
			t.Fatalf("unknown algorithm %q", r.Algorithm)
		}
		if r.Hypervolume < 0 || r.Hypervolume > 1 {
			t.Fatalf("%s n=%d: hypervolume %v out of [0,1]", r.Algorithm, r.Tasks, r.Hypervolume)
		}
		if r.TimeImprovement < 0 || r.TimeImprovement > 1 ||
			r.EnergyImprovement < 0 || r.EnergyImprovement > 1 {
			t.Fatalf("%s n=%d: improvements out of range: %+v", r.Algorithm, r.Tasks, r)
		}
		if r.FrontSize < 1 {
			t.Fatalf("%s n=%d: empty fronts on average", r.Algorithm, r.Tasks)
		}
	}
	r := Report{ID: "pareto", Rows: rows}
	var sb strings.Builder
	if err := r.Text(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hypervolume") || !strings.Contains(sb.String(), "NSGA2") {
		t.Fatal("pareto rendering incomplete")
	}
	var csv strings.Builder
	if err := r.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != len(rows)+1 {
		t.Fatalf("csv rows = %d, want %d", got, len(rows)+1)
	}
}

func TestParetoEpsShrinksFronts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep; run without -short")
	}
	cfg := tinyCfg()
	cfg.GAGenerations = 5
	exact := ParetoComparisonEps(cfg, 0)
	coarse := ParetoComparisonEps(cfg, 0.5)
	for i := range exact {
		if coarse[i].FrontSize > exact[i].FrontSize {
			t.Fatalf("%s n=%d: eps=0.5 front %v larger than exact %v",
				exact[i].Algorithm, exact[i].Tasks, coarse[i].FrontSize, exact[i].FrontSize)
		}
	}
}

func TestWriteCSVFront(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSVFront(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "point,makespan,energy,mapping") {
		t.Fatalf("front csv header wrong: %q", sb.String())
	}
}
