package decomp

import (
	"testing"

	"spmap/internal/model"
	"spmap/internal/platform"
)

func TestParallelBasicMatchesSerial(t *testing.T) {
	p := platform.Reference()
	for seed := int64(0); seed < 6; seed++ {
		g := testGraph(seed+900, 50)
		ev := model.NewEvaluator(g, p).WithSchedules(10, seed)
		for _, strat := range []Strategy{SingleNode, SeriesParallel} {
			mSerial, stSerial, err := MapWithEvaluator(ev, Options{Strategy: strat, Heuristic: Basic})
			if err != nil {
				t.Fatal(err)
			}
			mPar, stPar, err := MapWithEvaluator(ev, Options{Strategy: strat, Heuristic: Basic, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !mSerial.Equal(mPar) {
				t.Fatalf("seed %d %v: parallel evaluation changed the result", seed, strat)
			}
			if stSerial.Makespan != stPar.Makespan || stSerial.Iterations != stPar.Iterations {
				t.Fatalf("seed %d %v: stats differ: %+v vs %+v", seed, strat, stSerial, stPar)
			}
		}
	}
}

func TestEnergyObjectiveShiftsMapping(t *testing.T) {
	// Minimizing energy must never pick a higher-energy mapping than
	// minimizing makespan does.
	p := platform.Reference()
	g := testGraph(321, 40)
	ev := model.NewEvaluator(g, p).WithSchedules(10, 1)
	mTime, _, err := MapWithEvaluator(ev, Options{Strategy: SeriesParallel, Heuristic: Basic})
	if err != nil {
		t.Fatal(err)
	}
	mEnergy, _, err := MapWithEvaluator(ev, Options{
		Strategy: SeriesParallel, Heuristic: Basic, Objective: ev.WeightedObjective(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Energy(mEnergy) > ev.Energy(mTime)+1e-9 {
		t.Fatalf("energy objective produced more energy (%v) than time objective (%v)",
			ev.Energy(mEnergy), ev.Energy(mTime))
	}
	if ev.Makespan(mTime) > ev.Makespan(mEnergy)+1e-9 {
		t.Fatalf("time objective produced a longer makespan (%v) than energy objective (%v)",
			ev.Makespan(mTime), ev.Makespan(mEnergy))
	}
}
