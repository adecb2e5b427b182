package eval_test

// Differential fuzzing of the engine's energy objective against the
// reference model.Evaluator.Energy, mirroring FuzzEngineMatchesReference:
// random DAGs, attributes, mappings and schedule sets; Engine.Energy and
// the energies of the fused EvaluateBatchVec [makespan, energy] pass
// must reproduce the reference bit-for-bit — plain and patched, serial
// and over 1/4 workers, feasible and infeasible — while the fused
// makespans stay identical to EvaluateBatch.

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/eval"
	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

// fusedMsEn runs the fused [makespan, energy] pass of the vector API and
// returns its two columns.
func fusedMsEn(eng *eval.Engine, ops []eval.Op, cutoff float64) (ms, en []float64) {
	cols := eng.EvaluateBatchVec(ops, []eval.Objective{eval.MakespanObjective(), eval.EnergyObjective()}, cutoff)
	return cols[0], cols[1]
}

func FuzzEngineEnergyMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{15, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2})
	f.Add([]byte{3, 0, 0, 0, 2, 0, 1, 1, 2, 9, 9})
	// Large-area tasks: drives infeasible mappings through the energy path.
	f.Add([]byte{9, 255, 254, 253, 252, 251, 250, 249, 248, 247, 5, 0, 1, 1, 2, 2, 3})
	p := platform.Reference()
	nd := p.NumDevices()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m, seed := fuzzInstance(data, nd)
		if err := g.Validate(); err != nil {
			t.Skip() // duplicate edges from the byte stream
		}
		nSched := int(seed % 5)
		ev := model.NewEvaluator(g, p).WithSchedules(nSched, seed)
		want := ev.Energy(m)
		eng := ev.Engine()
		if got := eng.Energy(m); got != want {
			t.Fatalf("engine energy %v (%x) != reference %v (%x)",
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if (want == model.Infeasible) != !ev.Feasible(m) {
			t.Fatal("reference energy feasibility sentinel inconsistent")
		}

		// Batched, plain and patched, sharing m as base so the prefix-
		// resume path engages alongside the energy computation.
		var ops []eval.Op
		ops = append(ops, eval.Op{Base: m})
		wantEn := []float64{want}
		wantMs := []float64{ev.ReferenceMakespan(m)}
		for v := 0; v < g.NumTasks(); v++ {
			d := (m[v] + 1 + v) % nd
			ops = append(ops, eval.Op{Base: m, Patch: []graph.NodeID{graph.NodeID(v)}, Device: d})
			patched := m.Clone().Assign([]graph.NodeID{graph.NodeID(v)}, d)
			wantEn = append(wantEn, ev.Energy(patched))
			wantMs = append(wantMs, ev.ReferenceMakespan(patched))
		}
		for _, workers := range []int{1, 4} {
			ms, en := fusedMsEn(eng.WithWorkers(workers), ops, math.Inf(1))
			for i := range en {
				if en[i] != wantEn[i] {
					t.Fatalf("workers=%d op %d: energy %v != reference %v", workers, i, en[i], wantEn[i])
				}
				if ms[i] != wantMs[i] {
					t.Fatalf("workers=%d op %d: fused makespan %v != reference %v", workers, i, ms[i], wantMs[i])
				}
				if (en[i] == model.Infeasible) != (ms[i] == model.Infeasible) {
					t.Fatalf("workers=%d op %d: energy/makespan infeasibility disagree", workers, i)
				}
			}
		}
		// Energies stay exact under a finite makespan cutoff.
		if cut := wantMs[0]; cut != model.Infeasible {
			_, en := fusedMsEn(eng, ops, cut*0.5)
			for i := range en {
				if en[i] != wantEn[i] {
					t.Fatalf("cutoff op %d: energy %v != reference %v", i, en[i], wantEn[i])
				}
			}
		}

		// An incremental session is single-objective, so the energy path
		// never goes through it — but a live session shares the engine's
		// state pools with the fused batch path. Interleaving the two must
		// perturb neither: session makespans stay bit-identical to the
		// reference and batch energies keep matching wantEn throughout.
		inc := eng.Incremental(m, nil)
		rng := rand.New(rand.NewSource(seed + 17))
		cur := m.Clone()
		one := make([]graph.NodeID, 1)
		for step := 0; step < 4; step++ {
			one[0] = graph.NodeID(rng.Intn(g.NumTasks()))
			d := rng.Intn(nd)
			cand := cur.Clone().Assign(one, d)
			if got, want := inc.Evaluate(one, d, math.Inf(1)), ev.ReferenceMakespan(cand); got != want {
				t.Fatalf("session step %d: eval %v != reference %v", step, got, want)
			}
			if _, en := fusedMsEn(eng, ops, math.Inf(1)); en[0] != wantEn[0] {
				t.Fatalf("session step %d: interleaved fused energy %v != reference %v", step, en[0], wantEn[0])
			}
			if rng.Intn(2) == 0 {
				inc.Apply(one, d)
				cur = cand
			}
		}
		if got, want := inc.Makespan(), ev.ReferenceMakespan(cur); got != want {
			t.Fatalf("session makespan %v != reference %v after fused-batch interleaving", got, want)
		}
		inc.Close()
	})
}

// TestEngineEnergyMatchesReferenceSweep cross-checks energies on larger
// generated graphs than the fuzz harness reaches by default.
func TestEngineEnergyMatchesReferenceSweep(t *testing.T) {
	p := platform.Reference()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.SeriesParallel(rng, 60, gen.DefaultAttr())
		ev := model.NewEvaluator(g, p).WithSchedules(10, seed)
		eng := ev.Engine()
		m := mapping.Baseline(g, p)
		for trial := 0; trial < 20; trial++ {
			for v := range m {
				m[v] = rng.Intn(p.NumDevices())
			}
			if got, want := eng.Energy(m), ev.Energy(m); got != want {
				t.Fatalf("seed %d trial %d: engine energy %v != reference %v", seed, trial, got, want)
			}
		}
	}
}

// TestEvaluateBatchVecMatchesEvaluateBatch pins the fused pass's
// makespans to the single-objective batch path bit-for-bit (same ops,
// same cutoff).
func TestEvaluateBatchVecMatchesEvaluateBatch(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(7))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(8, 7)
	eng := ev.Engine()
	base := mapping.Baseline(g, p)
	var ops []eval.Op
	patches := make([]graph.NodeID, g.NumTasks())
	for v := range patches {
		patches[v] = graph.NodeID(v)
		for d := 1; d < p.NumDevices(); d++ {
			ops = append(ops, eval.Op{Base: base, Patch: patches[v : v+1], Device: d})
		}
	}
	for _, cutoff := range []float64{math.Inf(1), eng.Makespan(base)} {
		want := eng.EvaluateBatch(ops, cutoff)
		got, _ := fusedMsEn(eng, ops, cutoff)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cutoff %v op %d: fused makespan %v != batch makespan %v", cutoff, i, got[i], want[i])
			}
		}
	}
}
