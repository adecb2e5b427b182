package experiments

import (
	"strings"
	"testing"
)

func TestPortfolioComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep; run without -short")
	}
	cfg := tinyCfg()
	tab := PortfolioComparison(cfg)
	if tab.ID != "portfolio" {
		t.Fatalf("table id %q", tab.ID)
	}
	names := make([]string, 0, len(tab.Series))
	var pf *Series
	for _, s := range tab.Series {
		names = append(names, s.Name)
		if s.Name == "Portfolio" {
			pf = s
		}
	}
	if pf == nil {
		t.Fatalf("no Portfolio series in %v", names)
	}
	if len(pf.Points) != 3 {
		t.Fatalf("portfolio series has %d points, want 3", len(pf.Points))
	}
	for _, p := range pf.Points {
		if p.Improvement < 0 || p.Improvement > 1 {
			t.Fatalf("n=%g: improvement %v out of [0,1]", p.X, p.Improvement)
		}
	}
	var csv strings.Builder
	if err := tab.Report().CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "portfolio,Portfolio,") {
		t.Fatalf("csv missing portfolio rows:\n%s", csv.String())
	}
}
