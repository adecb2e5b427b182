package model

import "spmap/internal/mapping"

// This file hosts the multi-objective extension the paper sketches in
// §II-A ("the basic algorithmic ideas presented in this work can easily
// be transferred to multi-objective optimization"): the energy model
// and the weighted time/energy scalarization. The engine-side objective
// vectors (makespan, energy, robust tail) live in package eval.

// Objective evaluates a mapping into a scalar cost to minimize. It must
// be deterministic (the greedy mappers' termination proof relies on it)
// and return Infeasible for infeasible mappings.
type Objective func(m mapping.Mapping) float64

// Energy returns the compute energy of a mapping in joules: each task's
// execution time multiplied by its device's active power. Transfer and
// idle energy are not modeled (documented simplification). Infeasible
// mappings yield Infeasible.
func (e *Evaluator) Energy(m mapping.Mapping) float64 {
	if !e.Feasible(m) {
		return Infeasible
	}
	total := 0.0
	for v := 0; v < e.G.NumTasks(); v++ {
		d := m[v]
		total += e.exec[d][v] * e.P.Devices[d].PowerW
	}
	return total
}

// WeightedObjective scalarizes makespan and energy:
//
//	cost = wTime * makespan/baseMakespan + wEnergy * energy/baseEnergy
//
// Both terms are normalized by the pure-CPU baseline so the weights are
// dimensionless and comparable. Weights must be non-negative and not both
// zero. The baseline objectives are cached on the evaluator, so
// constructing objectives in a weight sweep is O(1) after the first.
func (e *Evaluator) WeightedObjective(wTime, wEnergy float64) Objective {
	baseMs, baseEn := e.baselineObjectives()
	if baseMs <= 0 {
		baseMs = 1
	}
	if baseEn <= 0 {
		baseEn = 1
	}
	return func(m mapping.Mapping) float64 {
		ms := e.Makespan(m)
		if ms == Infeasible {
			return Infeasible
		}
		en := e.Energy(m)
		if en == Infeasible {
			return Infeasible
		}
		return wTime*ms/baseMs + wEnergy*en/baseEn
	}
}
