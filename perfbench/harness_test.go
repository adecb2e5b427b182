package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"spmap/internal/eval"
	"spmap/internal/mappers/decomp"
)

func TestTailRefusesThinPercentiles(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		need := samplesFor(q)
		xs := make([]float64, need)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, err := tail(xs[:need-1], q); err == nil {
			t.Errorf("p%g of %d samples: accepted with fewer than %d beyond", 100*q, need-1, minBeyond)
		}
		v, err := tail(xs, q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", 100*q, need, err)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("p%g of %d samples: %d beyond, want exactly %d", 100*q, need, beyond, minBeyond)
		}
	}
}

func TestGateCountsCorruptedMakespan(t *testing.T) {
	ins := spffCorpus()[:3]
	st := buildMapState(ins)
	r := newReport()
	for i := range ins {
		m, ms, err := decomp.MapWithEvaluator(st.evs[i], spffOptions(&ins[i]))
		if err != nil {
			t.Fatal(err)
		}
		r.check(gateMapping(st.evs[i], m, ms.Makespan, st.baseline[i]))
		r.check(gateMapping(st.evs[i], m, math.Nextafter(ms.Makespan, math.Inf(1)), st.baseline[i]))
	}
	if r.attempted != 6 || r.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 6 and 3 (every corrupted makespan fails)", r.attempted, r.failed)
	}
	if got := ratio(float64(r.attempted-r.failed), float64(r.attempted)); got != 0.5 {
		t.Fatalf("pass share %v, want 0.5", got)
	}

}

func TestServiceGateCountsCorruptedMakespan(t *testing.T) {
	r := newReport()
	st, err := svcSetUp(5, r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.svc.Close()
	if len(r.problems) > 0 {
		t.Fatalf("set-up checks failed: %v", r.problems)
	}
	// Replies as a correct service would send them for client 0. Enough
	// of them that some candidates repeat earlier ones, which the gate
	// checks against its first evaluation.
	seed := st.in.clients[0]
	rng := rand.New(rand.NewSource(seed))
	replies := make([]svcReply, 64)
	seen := map[[2]any]bool{}
	repeatK, repeatJ := -1, -1
	for k := range replies {
		i, mvs := st.draw(rng)
		ops := make([]eval.Op, len(mvs))
		for j, m := range mvs {
			ops[j] = eval.Op{Base: st.incumbents[i], Patch: m.tasks, Device: m.device}
			key := [2]any{i, keyOf(st.incumbents[i], m)}
			if seen[key] && repeatK < 0 && k > 5 {
				repeatK, repeatJ = k, j
			}
			seen[key] = true
		}
		replies[k] = svcReply{code: 200, n: svcMoves}
		copy(replies[k].ms[:], st.engines[i].EvaluateBatch(ops, math.Inf(1)))
	}
	if repeatK < 0 {
		t.Fatal("no repeated candidate among the replies")
	}
	for k, err := range st.gate(seed, replies) {
		if err != nil {
			t.Fatalf("correct reply %d rejected: %v", k, err)
		}
	}
	replies[2].ms[3] = math.Nextafter(replies[2].ms[3], 0)
	replies[4].code = 500
	replies[5].n = svcMoves - 1
	replies[repeatK].ms[repeatJ] = math.Nextafter(replies[repeatK].ms[repeatJ], math.Inf(1))
	for k, err := range st.gate(seed, replies) {
		bad := k == 2 || k == 4 || k == 5 || k == repeatK
		if bad != (err != nil) {
			t.Errorf("reply %d: corrupted %t, gate said %v", k, bad, err)
		}
	}
}

// inputBytes renders every generated input for a seed: the workloads'
// fixed instance sets, the service probe's seed-drawn traffic and the
// fleet probe's streams. (The visit and stream orders the seed draws
// are made inside the loops.)
func inputBytes(t *testing.T, seed int64) []byte {
	var b bytes.Buffer
	enc := func(v any) {
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
	}
	for _, ins := range [][]instance{spffCorpus(), raceCorpus()} {
		for _, in := range ins {
			enc(in.g)
			enc(in.p)
			fmt.Fprint(&b, in.schedules, in.seed, in.algoSeed)
		}
	}
	svc, err := svcGenerate(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range svc.mapReqs {
		b.Write(svc.mapReqs[i])
	}
	fmt.Fprint(&b, svc.clients)
	for _, sm := range fleetStreamSet() {
		enc(sm.Graph)
		enc(sm.Platform)
		if err := sm.Scenario.Write(&b); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %+v", sm.ID, sm.Options)
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := inputBytes(t, 7), inputBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated different inputs")
	}
	if bytes.Equal(a, inputBytes(t, 8)) {
		t.Fatal("two seeds generated the same inputs")
	}
}

// probeMetrics are per-layer metrics that only the service and fleet
// probes measure; every traced run must report them.
var probeMetrics = []string{
	"batcher.flush_ops", "batcher.flushes_per_req", "service.batch_wait_us", "service.eval_us", "client.codec_us",
	"online.event_ms.fail", "online.event_ms.degrade", "online.event_ms.arrive", "online.event_ms.depart",
	"online.open_ms", "online.repair_evals", "fleet.checkpoints", "fleet.checkpoint_kb", "fleet.save_us", "fleet.encode_us",
}

func TestTracedRunKeepsImprovementAndGap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			got := map[bool]*report{}
			for _, traced := range []bool{false, true} {
				c := &config{seed: 3, seconds: 0.001, trace: traced, spansDir: t.TempDir(), minOps: 1}
				r := newReport()
				if err := w.run(c, r); err != nil {
					t.Fatalf("trace=%t: %v", traced, err)
				}
				if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
					t.Fatalf("trace=%t: %d of %d ops failed: %v", traced, r.failed, r.attempted, r.problems)
				}
				got[traced] = r
			}
			for _, name := range []string{"improvement", "gap"} {
				a, b := got[false].metrics[name], got[true].metrics[name]
				if math.Float64bits(a) != math.Float64bits(b) || !(a > 0) {
					t.Errorf("%s: untraced %v, traced %v", name, a, b)
				}
			}
			if _, err := got[true].finish(true); err != nil {
				t.Error(err)
			}
			for _, name := range probeMetrics {
				if v := got[true].metrics[name]; !(v > 0) {
					t.Errorf("traced run: %s = %v, want a positive measurement", name, v)
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with
// the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", what, len(defs), len(got))
			return
		}
		for i := range defs {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s %d: %s (%s) here, %s (%s) in BENCHMARK.json", what, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(bj.Workloads))
	}
	for i := range workloads {
		if workloads[i].name != bj.Workloads[i].Name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, workloads[i].name, bj.Workloads[i].Name)
		}
	}
}
