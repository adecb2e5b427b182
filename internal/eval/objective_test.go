package eval_test

// Tests of the vector objective API: the regression guard pinning
// EvaluateBatchVec's fused (makespan, energy) columns bit-identical to
// EvaluateBatch and to the reference energy.

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

// TestEvaluateBatchVecFusedColumns is the two-objective regression
// guard: for every platform/graph pair, op mix (whole mappings, patches,
// infeasible candidates) and cutoff, the makespan column must be
// bit-identical to EvaluateBatch and the energy column to
// model.Evaluator.Energy of the materialized mapping — in either column
// order, with an extra third objective riding along, and for
// single-column calls.
func TestEvaluateBatchVecFusedColumns(t *testing.T) {
	objs := []eval.Objective{eval.MakespanObjective(), eval.EnergyObjective()}
	robust, err := eval.NewRobustObjective(eval.NoiseModel{Kind: eval.NoiseLognormal, DeviceSigma: 0.2, Seed: 3}, 3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for pname, p := range testPlatforms() {
		for gname, g := range testGraphs(t) {
			ev := model.NewEvaluator(g, p).WithSchedules(8, 5)
			eng := ev.Engine()
			rng := rand.New(rand.NewSource(int64(len(pname) * len(gname))))
			base := mapping.Baseline(g, p)
			var ops []eval.Op
			ops = append(ops, eval.Op{Base: base})
			for i := 0; i < 40; i++ {
				if i%3 == 0 {
					ops = append(ops, eval.Op{Base: randomMapping(rng, g.NumTasks(), p.NumDevices())})
					continue
				}
				v := graph.NodeID(rng.Intn(g.NumTasks()))
				ops = append(ops, eval.Op{Base: base, Patch: []graph.NodeID{v}, Device: rng.Intn(p.NumDevices())})
			}
			en := make([]float64, len(ops))
			for i, op := range ops {
				en[i] = ev.Energy(op.Base.Clone().Assign(op.Patch, op.Device))
			}
			incumbent := eng.Makespan(base)
			cutoffs := []float64{math.Inf(1)}
			if incumbent < eval.Infeasible {
				cutoffs = append(cutoffs, incumbent, incumbent*0.7)
			}
			for _, cutoff := range cutoffs {
				ms := eng.EvaluateBatch(ops, cutoff)
				checkCols := func(label string, gotMS, gotEN []float64) {
					t.Helper()
					for i := range ops {
						if math.Float64bits(gotMS[i]) != math.Float64bits(ms[i]) {
							t.Fatalf("%s/%s %s cutoff %v op %d: makespan %v != EvaluateBatch %v",
								pname, gname, label, cutoff, i, gotMS[i], ms[i])
						}
						if math.Float64bits(gotEN[i]) != math.Float64bits(en[i]) {
							t.Fatalf("%s/%s %s cutoff %v op %d: energy %v != reference %v",
								pname, gname, label, cutoff, i, gotEN[i], en[i])
						}
					}
				}
				cols := eng.EvaluateBatchVec(ops, objs, cutoff)
				checkCols("vec", cols[0], cols[1])
				swapped := eng.EvaluateBatchVec(ops, []eval.Objective{objs[1], objs[0]}, cutoff)
				checkCols("vec-swapped", swapped[1], swapped[0])
				three := eng.EvaluateBatchVec(ops, []eval.Objective{objs[0], objs[1], robust}, cutoff)
				checkCols("vec+robust", three[0], three[1])
				// Single-column calls run the unfused passes.
				msOnly := eng.EvaluateBatchVec(ops, objs[:1], cutoff)
				enOnly := eng.EvaluateBatchVec(ops, objs[1:2], cutoff)
				checkCols("single-column", msOnly[0], enOnly[0])
			}
		}
	}
}

func TestEvaluateBatchVecEmpty(t *testing.T) {
	p := platform.CPUOnly()
	rng := rand.New(rand.NewSource(1))
	g := gen.SeriesParallel(rng, 10, gen.DefaultAttr())
	eng := model.NewEvaluator(g, p).Engine()
	if cols := eng.EvaluateBatchVec(nil, nil, math.Inf(1)); len(cols) != 0 {
		t.Fatalf("nil objectives: got %d columns", len(cols))
	}
	cols := eng.EvaluateBatchVec(nil, []eval.Objective{eval.MakespanObjective()}, math.Inf(1))
	if len(cols) != 1 || len(cols[0]) != 0 {
		t.Fatalf("empty ops: got %v", cols)
	}
}
