package experiments

import (
	"strings"
	"testing"
	"time"
)

func tinyCfg() Config {
	return Config{
		GraphsPerPoint: 2,
		Schedules:      5,
		GAGenerations:  10,
		MILPTimeLimit:  200 * time.Millisecond,
		Seed:           1,
	}
}

func checkTable(t *testing.T, tab *Table, wantSeries []string) {
	t.Helper()
	if len(tab.Series) != len(wantSeries) {
		t.Fatalf("%s: got %d series, want %d", tab.ID, len(tab.Series), len(wantSeries))
	}
	for i, s := range tab.Series {
		if s.Name != wantSeries[i] {
			t.Fatalf("%s: series %d = %q, want %q", tab.ID, i, s.Name, wantSeries[i])
		}
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %q has no points", tab.ID, s.Name)
		}
		for _, p := range s.Points {
			if p.Improvement < 0 || p.Improvement > 1 {
				t.Fatalf("%s/%s: improvement %v out of [0,1]", tab.ID, s.Name, p.Improvement)
			}
			if p.TimeMS < 0 {
				t.Fatalf("%s/%s: negative time", tab.ID, s.Name)
			}
		}
	}
	var sb strings.Builder
	if err := tab.Report().Text(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), tab.ID) {
		t.Fatalf("%s: rendering lost the id", tab.ID)
	}
}

func TestFig4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep; run without -short")
	}
	tab := Fig4(tinyCfg())
	checkTable(t, tab, []string{"HEFT", "PEFT", "SingleNode", "SeriesParallel", "SNFirstFit", "SPFirstFit"})
}

func TestFig5Quick(t *testing.T) {
	tab := Fig5(tinyCfg())
	checkTable(t, tab, []string{"SNFirstFit", "SPFirstFit", "NSGAII"})
}

func TestFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep; run without -short")
	}
	cfg := tinyCfg()
	tab := Fig6(cfg)
	checkTable(t, tab, []string{"SNFirstFit", "SPFirstFit", "NSGAII"})
}

func TestFig7Quick(t *testing.T) {
	tab := Fig7(tinyCfg())
	checkTable(t, tab, []string{"HEFT", "PEFT", "NSGAII", "SNFirstFit", "SPFirstFit"})
	// The x axis is extra edges, including the pure-SP point 0.
	if tab.Series[0].Points[0].X != 0 {
		t.Fatal("fig7 must start at zero extra edges")
	}
}

func TestFig3QuickRestrictsZhouLiu(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep; run without -short")
	}
	cfg := tinyCfg()
	tab := Fig3(cfg)
	checkTable(t, tab, []string{"WGDPTime", "WGDPDevice", "ZhouLiu", "SingleNode", "SeriesParallel"})
	var zhou *Series
	for _, s := range tab.Series {
		if s.Name == "ZhouLiu" {
			zhou = s
		}
	}
	for _, p := range zhou.Points {
		if p.X > 10 {
			t.Fatalf("quick profile must not run ZhouLiu beyond 10 tasks (got point at %v)", p.X)
		}
	}
}

func TestTable1Quick(t *testing.T) {
	rows := table1Rows()
	sets := map[string]bool{}
	for _, r := range rows {
		sets[r.Set] = true
		if r.Tasks <= 0 {
			t.Fatalf("%s: no tasks", r.Set)
		}
		if r.Improvement < 0 || r.Improvement > 1 {
			t.Fatalf("%s/%s: improvement %v", r.Set, r.Algorithm, r.Improvement)
		}
	}
	if len(sets) != 9 || len(rows) != 9*5 {
		t.Fatalf("expected 9 workflow families x 5 algorithms, got %d families in %d rows", len(sets), len(rows))
	}
	var sb strings.Builder
	if err := (Report{ID: "table1", Rows: rows}).Text(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"montage", "epigenomics", "SPFirstFit"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table rendering missing %q", want)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep; run without -short")
	}
	cfg := tinyCfg()
	checkTable(t, CutPolicyAblation(cfg), []string{"cut-random", "cut-smallest", "cut-largest"})
	gt := GammaAblation(cfg)
	if len(gt.Series) != 6 {
		t.Fatalf("gamma ablation series = %d, want 6", len(gt.Series))
	}
	st := ScheduleCountAblation(cfg)
	if len(st.Series) != 1 || len(st.Series[0].Points) != 5 {
		t.Fatal("schedule-count ablation malformed")
	}
}

func TestConfigDefaults(t *testing.T) {
	var quick Config
	if quick.graphs() != 8 || quick.schedules() != 20 || quick.gaGens() != 100 {
		t.Fatal("quick defaults changed unexpectedly")
	}
	paper := Config{Paper: true}
	if paper.graphs() != 30 || paper.schedules() != 100 || paper.gaGens() != 500 {
		t.Fatal("paper protocol constants changed unexpectedly")
	}
	if paper.milpBudget() != 5*time.Minute {
		t.Fatal("paper MILP budget must be 5 minutes")
	}
}
