package eval

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Objective is one scalar column of the vector evaluation API: a named,
// minimized quantity evaluated for every op of a batch. Makespan and
// energy are the two built-in objectives (the historical hard-coded
// pair); further objectives — the Monte-Carlo robust makespan first —
// register themselves under RegisterObjective and ride the same
// engine plumbing.
//
// Batch fills out[i] with the objective value of ops[i]. cutoff is the
// caller's makespan cutoff; objectives for which a makespan bound is
// meaningless (energy, robust statistics) may ignore it, but every
// objective must mark infeasible candidates with Infeasible and must be
// deterministic: out depends only on (engine inputs, ops, cutoff),
// never on worker count, caching or call history.
type Objective interface {
	Name() string
	Batch(e *Engine, ops []Op, cutoff float64, out []float64)
}

// makespanObjective is the schedule-set makespan (see EvaluateBatch).
type makespanObjective struct{}

func (makespanObjective) Name() string { return "makespan" }

func (makespanObjective) Batch(e *Engine, ops []Op, cutoff float64, out []float64) {
	e.batchCore(nil, ops, cutoff, out, nil)
}

// energyObjective is the exact compute energy (see Engine.Energy).
type energyObjective struct{}

func (energyObjective) Name() string { return "energy" }

func (energyObjective) Batch(e *Engine, ops []Op, _ float64, out []float64) {
	e.energyBatch(ops, out)
}

// MakespanObjective returns the built-in makespan objective — the first
// registered objective, whose column obeys the MakespanCutoff contract.
func MakespanObjective() Objective { return makespanObjective{} }

// EnergyObjective returns the built-in compute-energy objective; its
// column is always exact (energies have no cutoff, see Engine.Energy).
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

// ObjectiveParams parameterize objective construction through the
// registry. Fields irrelevant to an objective are ignored by its
// builder (makespan and energy take none).
type ObjectiveParams struct {
	// Noise is the stochastic cost model of the robust objectives.
	Noise NoiseModel
	// Samples is the Monte-Carlo sample count (robust objectives).
	Samples int
	// Tail is the tail quantile in (0, 1) (robust objectives; 0 selects
	// DefaultTail).
	Tail float64
}

// ObjectiveBuilder constructs an objective from its parameters,
// validating them.
type ObjectiveBuilder func(ObjectiveParams) (Objective, error)

var (
	objMu       sync.RWMutex
	objRegistry = map[string]ObjectiveBuilder{}
)

// RegisterObjective registers a builder under a name (panics on
// duplicates — registration happens at init time).
func RegisterObjective(name string, b ObjectiveBuilder) {
	objMu.Lock()
	defer objMu.Unlock()
	if _, dup := objRegistry[name]; dup {
		panic(fmt.Sprintf("eval: objective %q registered twice", name))
	}
	objRegistry[name] = b
}

// BuildObjective constructs the named registered objective.
func BuildObjective(name string, p ObjectiveParams) (Objective, error) {
	objMu.RLock()
	b, ok := objRegistry[name]
	objMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("eval: unknown objective %q (registered: %v)", name, ObjectiveNames())
	}
	return b(p)
}

// ObjectiveNames returns the sorted registered objective names.
func ObjectiveNames() []string {
	objMu.RLock()
	defer objMu.RUnlock()
	names := make([]string, 0, len(objRegistry))
	for n := range objRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterObjective("makespan", func(ObjectiveParams) (Objective, error) {
		return MakespanObjective(), nil
	})
	RegisterObjective("energy", func(ObjectiveParams) (Objective, error) {
		return EnergyObjective(), nil
	})
	RegisterObjective("robust", func(p ObjectiveParams) (Objective, error) {
		return NewRobustObjective(p.Noise, p.Samples, p.Tail, RobustTail)
	})
	RegisterObjective("robust-mean", func(p ObjectiveParams) (Objective, error) {
		return NewRobustObjective(p.Noise, p.Samples, p.Tail, RobustMean)
	})
}

// quantileIndex returns the 0-based order statistic of the q-quantile
// over s sorted samples — ceil(q*s) - 1 clamped to [0, s-1] (the
// inverse empirical CDF; q = 0.95 over 20 samples selects index 18).
func quantileIndex(q float64, s int) int {
	i := int(math.Ceil(q*float64(s))) - 1
	if i < 0 {
		i = 0
	}
	if i >= s {
		i = s - 1
	}
	return i
}
