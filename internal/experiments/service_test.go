package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"spmap/internal/service"
)

// TestServiceLevelAndGate runs the determinism gate and one small load
// level per mode — the full sweep is spmap-bench territory.
func TestServiceLevelAndGate(t *testing.T) {
	cfg := Config{Seed: 1, Schedules: 5}
	gj := serviceGraphJSON(cfg)
	safe := serviceSafeDevices(cfg.platform())

	serviceDeterminismGate(cfg, gj, cfg.serviceSchedules(), safe)

	for _, mode := range []string{"direct", "coalesced"} {
		svc := service.New(service.Options{
			Platform:   cfg.platform(),
			NoCoalesce: mode == "direct",
		})
		row := serviceRunLevel(cfg, recorderClient(svc.Handler()), gj, cfg.serviceSchedules(), safe, 32, mode)
		svc.Close()
		if row.Concurrency != 32 || row.Requests != 32 || row.Ops != 32*serviceOpsPerRequest {
			t.Fatalf("%s row shape: %+v", mode, row)
		}
		if !(row.Throughput > 0) || row.TimeMS <= 0 {
			t.Fatalf("%s throughput: %+v", mode, row)
		}
		if row.P50US <= 0 || row.P99US < row.P50US || row.MaxUS < row.P99US {
			t.Fatalf("%s percentiles not ordered: %+v", mode, row)
		}
		if !(row.EvalUS > 0) {
			t.Fatalf("%s phase timings missing: %+v", mode, row)
		}
		if mode == "coalesced" && !(row.BatchUS > 0) {
			t.Fatalf("coalesced row has no batch wait: %+v", row)
		}
	}
}

func TestServiceRowsSerialization(t *testing.T) {
	rows := []ServiceRow{
		{Concurrency: 1024, Mode: "direct", Requests: 1024, Ops: 4096, TimeMS: 12.5,
			Throughput: 81920, P50US: 10, P90US: 20, P99US: 40, MaxUS: 99,
			QueueUS: 1, BatchUS: 0, EvalUS: 5, RespondUS: 1, SpeedupVsDirect: 1},
		{Concurrency: 1024, Mode: "coalesced", Requests: 1024, Ops: 4096,
			Throughput: 163840, Flushes: 32, AvgFlush: 128, CrossFlushes: 30,
			MaxFlush: 128, SpeedupVsDirect: 2},
	}
	r := Report{ID: "service", Rows: rows}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][0] != "concurrency" || recs[2][1] != "coalesced" {
		t.Fatalf("csv: %v", recs)
	}

	buf.Reset()
	if err := EncodeJSON(&buf, []Report{r}); err != nil {
		t.Fatal(err)
	}
	var back []struct {
		Rows []ServiceRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Rows) != 2 || back[0].Rows[1].SpeedupVsDirect != 2 || back[0].Rows[0].Throughput != 81920 {
		t.Fatalf("json round-trip: %+v", back)
	}

	buf.Reset()
	if err := r.Text(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "coalesced") || !strings.Contains(out, "2.000") {
		t.Fatalf("text output:\n%s", out)
	}
}
