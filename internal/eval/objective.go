package eval

// Objective is one scalar column of the vector evaluation API: a
// minimized quantity evaluated for every op of a batch. The objectives
// are MakespanObjective, EnergyObjective and the Monte-Carlo robust
// makespan of NewRobustObjective.
//
// Batch fills out[i] with the objective value of ops[i]. cutoff is the
// caller's makespan cutoff; objectives for which a makespan bound is
// meaningless (energy, robust statistics) may ignore it, but every
// objective must mark infeasible candidates with Infeasible and must be
// deterministic: out depends only on (engine inputs, ops, cutoff),
// never on worker count, caching or call history.
type Objective interface {
	Batch(e *Engine, ops []Op, cutoff float64, out []float64)
}

// makespanObjective is the schedule-set makespan (see EvaluateBatch).
type makespanObjective struct{}

func (makespanObjective) Batch(e *Engine, ops []Op, cutoff float64, out []float64) {
	e.batchCore(nil, ops, cutoff, out, nil)
}

// energyObjective is the exact compute energy (see Engine.Energy).
type energyObjective struct{}

func (energyObjective) Batch(e *Engine, ops []Op, _ float64, out []float64) {
	e.energyBatch(ops, out)
}

// MakespanObjective returns the makespan objective, whose column obeys
// the MakespanCutoff contract.
func MakespanObjective() Objective { return makespanObjective{} }

// EnergyObjective returns the compute-energy objective; its column is
// always exact (energies have no cutoff, see Engine.Energy).
func EnergyObjective() Objective { return energyObjective{} }

// EvaluateBatchVec evaluates every op under every objective and returns
// the column-major result: cols[j][i] is objs[j]'s value of ops[i].
// A makespan column obeys the cutoff contract of EvaluateBatch; when
// both the makespan and the energy objective appear, their columns are
// fused through one batch pass: each energy is computed on the same
// materialized mapping as its makespan at near-zero marginal cost (one
// O(n) table scan against the O(orders x edges) simulation), stays
// exact, and is Infeasible exactly when the makespan is. The index
// alignment and determinism guarantees of EvaluateBatch extend to every
// column.
func (e *Engine) EvaluateBatchVec(ops []Op, objs []Objective, cutoff float64) [][]float64 {
	cols := make([][]float64, len(objs))
	for j := range cols {
		cols[j] = make([]float64, len(ops))
	}
	msJ, enJ := -1, -1
	for j, o := range objs {
		switch o.(type) {
		case makespanObjective:
			if msJ < 0 {
				msJ = j
			}
		case energyObjective:
			if enJ < 0 {
				enJ = j
			}
		}
	}
	switch {
	case msJ >= 0 && enJ >= 0:
		e.batchCore(nil, ops, cutoff, cols[msJ], cols[enJ])
	case msJ >= 0:
		e.batchCore(nil, ops, cutoff, cols[msJ], nil)
	case enJ >= 0:
		e.energyBatch(ops, cols[enJ])
	}
	for j, o := range objs {
		if j == msJ || j == enJ {
			continue
		}
		o.Batch(e, ops, cutoff, cols[j])
	}
	return cols
}
