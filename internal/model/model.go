// Package model implements the fully model-based cost function used to
// evaluate task mappings (paper §II-B, §III-A), following the modeling
// approach of Wilhelm et al. [5] with FPGA dataflow-streaming support.
//
// The evaluator simulates a list schedule of the task graph under a given
// mapping in time linear in the number of edges. The deterministic variant
// uses the breadth-first order of the graph; the reported makespan of a
// mapping is the minimum over the breadth-first schedule and a number of
// random topological schedules (paper §IV-A uses 100).
//
// Makespan evaluation delegates to the compiled kernel of package eval
// (CSR-flattened schedule set, bounded early exit, batch parallelism via
// Evaluator.Engine); MakespanOrder/ReferenceMakespan retain the
// straightforward simulation as the engine's cross-check oracle.
package model

import (
	"math"
	"math/rand"

	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

// Infeasible is the makespan reported for mappings that violate device
// area capacities.
const Infeasible = math.MaxFloat64

// Evaluator computes makespans of mappings for one (graph, platform)
// pair. It precomputes the task-by-device execution-time table and reuses
// internal scratch buffers, so a single Evaluator is not safe for
// concurrent use; create one per goroutine (via Clone) when evaluating in
// parallel.
type Evaluator struct {
	G *graph.DAG
	P *platform.Platform

	exec [][]float64 // [device][task] execution time
	bfs  []graph.NodeID
	// orders is the fixed schedule set the cost function minimizes over:
	// the BFS order plus any random topological orders added by
	// WithSchedules. The paper evaluates every mapping as the minimum
	// makespan over a breadth-first and 100 random schedules (§IV-A);
	// keeping the set fixed makes the cost function deterministic, which
	// the greedy mappers' termination guarantee relies on (§III-A).
	orders [][]graph.NodeID

	// scratch
	start, finish []float64
	free          [][]float64 // [device][slot] next-free time
	area          []float64

	// eng is the compiled evaluation engine for the current schedule set,
	// built lazily on first use and invalidated by WithSchedules. Makespan
	// evaluations delegate to it; MakespanOrder below remains the
	// straightforward reference simulation the engine is cross-checked
	// against.
	eng *eval.Engine

	// Cached pure-CPU baseline objectives, computed lazily and
	// invalidated by WithSchedules (the baseline makespan depends on the
	// schedule set). Objective sweeps construct WeightedObjective and
	// query BaselineMakespan per weight; the cache makes each
	// construction O(1) after the first instead of a full baseline
	// simulation.
	baseMs, baseEn float64
	baseValid      bool
}

func makeFree(p *platform.Platform) [][]float64 {
	free := make([][]float64, p.NumDevices())
	for d := range free {
		free[d] = make([]float64, p.Devices[d].NumSlots())
	}
	return free
}

// NewEvaluator builds an evaluator, precomputing execution times.
func NewEvaluator(g *graph.DAG, p *platform.Platform) *Evaluator {
	n := g.NumTasks()
	e := &Evaluator{
		G: g, P: p,
		exec:   make([][]float64, p.NumDevices()),
		bfs:    g.BFSOrder(),
		start:  make([]float64, n),
		finish: make([]float64, n),
		free:   makeFree(p),
		area:   make([]float64, p.NumDevices()),
	}
	for d := range e.exec {
		e.exec[d] = make([]float64, n)
		for v := 0; v < n; v++ {
			e.exec[d][v] = ExecTime(g, graph.NodeID(v), &p.Devices[d])
		}
	}
	e.orders = [][]graph.NodeID{e.bfs}
	return e
}

// WithSchedules fixes the evaluator's schedule set to the BFS order plus
// nRandom random topological orders drawn deterministically from seed,
// and returns the evaluator. The paper's evaluation protocol uses
// nRandom = 100 (§IV-A).
func (e *Evaluator) WithSchedules(nRandom int, seed int64) *Evaluator {
	// Build a fresh slice rather than truncating in place: clones share
	// the orders backing array, and appending over it would silently
	// rewrite a sibling evaluator's schedule set.
	orders := make([][]graph.NodeID, 0, nRandom+1)
	orders = append(orders, e.bfs)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nRandom; i++ {
		orders = append(orders, e.G.RandomTopoOrder(rng.Intn))
	}
	e.orders = orders
	e.eng = nil // schedule set changed: recompile on next use
	e.baseValid = false
	return e
}

// baselineObjectives returns the cached (makespan, energy) of the
// pure-CPU baseline mapping, computing both on first use.
func (e *Evaluator) baselineObjectives() (baseMs, baseEn float64) {
	if !e.baseValid {
		base := mapping.Baseline(e.G, e.P)
		e.baseMs = e.Makespan(base)
		e.baseEn = e.Energy(base)
		e.baseValid = true
	}
	return e.baseMs, e.baseEn
}

// Engine returns the compiled evaluation engine for the evaluator's
// current schedule set, building it on first use. The engine shares the
// evaluator's cost semantics (bit-identical makespans) but is safe for
// concurrent use and exposes cutoff-bounded and batch evaluation; see
// package eval.
func (e *Evaluator) Engine() *eval.Engine {
	if e.eng == nil {
		e.eng = eval.NewEngine(e.G, e.P, e.orders, eval.Options{})
	}
	return e.eng
}

// WithEngine installs eng as the evaluator's engine and returns the
// evaluator. Every mapper that evaluates through this evaluator (all of
// them — Makespan delegates to the engine) then uses eng; the portfolio
// runner uses this to put one memoizing cached engine behind every
// racing mapper. eng must derive from this evaluator's own Engine (same
// kernel — e.g. Engine().WithCache(...).WithWorkers(...)): makespans
// must stay bit-identical to the evaluator's schedule set. WithSchedules
// discards the installed engine along with the schedule set.
func (e *Evaluator) WithEngine(eng *eval.Engine) *Evaluator {
	e.eng = eng
	return e
}

// NumSchedules returns the size of the fixed schedule set.
func (e *Evaluator) NumSchedules() int { return len(e.orders) }

// Clone returns an evaluator sharing the immutable execution table but
// with private scratch buffers, for use from another goroutine.
func (e *Evaluator) Clone() *Evaluator {
	n := e.G.NumTasks()
	return &Evaluator{
		G: e.G, P: e.P, exec: e.exec, bfs: e.bfs, orders: e.orders,
		start: make([]float64, n), finish: make([]float64, n),
		free: makeFree(e.P), area: make([]float64, e.P.NumDevices()),
		eng:    e.eng, // the engine is immutable and concurrency-safe
		baseMs: e.baseMs, baseEn: e.baseEn, baseValid: e.baseValid,
	}
}

// ExecTime returns the modeled execution time of task v on device d.
//
// Work is complexity x input bytes. Non-streaming devices follow Amdahl's
// law over the device's lanes: t = W*(p/Peak + (1-p)/lane). Streaming
// (FPGA-like) devices run a task as a pipeline at Peak x streamability.
// Virtual tasks are free everywhere.
func ExecTime(g *graph.DAG, v graph.NodeID, d *platform.Device) float64 {
	return eval.ExecTime(g, v, d)
}

// Exec returns the precomputed execution time of task v on device d.
func (e *Evaluator) Exec(v graph.NodeID, d int) float64 { return e.exec[d][v] }

// BestExec returns the fastest execution time of v across all devices.
func (e *Evaluator) BestExec(v graph.NodeID) float64 {
	best := e.exec[0][v]
	for d := 1; d < len(e.exec); d++ {
		if e.exec[d][v] < best {
			best = e.exec[d][v]
		}
	}
	return best
}

// streamFactor returns the pipelining overlap factor sigma >= 1 for edge
// (u,v) when co-mapped on a streaming device, or 0 if the pair cannot
// stream.
func (e *Evaluator) streamFactor(u, v graph.NodeID) float64 {
	tu, tv := e.G.Task(u), e.G.Task(v)
	su, sv := tu.Streamability, tv.Streamability
	if tu.Virtual {
		su = sv
	}
	if tv.Virtual {
		sv = su
	}
	s := math.Min(su, sv)
	if s < 1 {
		return 0
	}
	return s
}

// StreamFactor exposes the pipelining overlap factor of edge (u,v): the
// sigma >= 1 used by the simulator when the pair is co-mapped on a
// streaming device, or 0 if the pair cannot stream. The lower-bound
// layer (package bounds) uses it to build streaming-aware path bounds
// with exactly the simulator's semantics.
func (e *Evaluator) StreamFactor(u, v graph.NodeID) float64 { return e.streamFactor(u, v) }

// Feasible reports whether m satisfies all device area capacities.
func (e *Evaluator) Feasible(m mapping.Mapping) bool {
	for d := range e.area {
		e.area[d] = 0
	}
	overflow := false
	for v, d := range m {
		a := e.G.Task(graph.NodeID(v)).Area
		if a == 0 {
			continue
		}
		if capacity := e.P.Devices[d].Area; capacity > 0 {
			e.area[d] += a
			if e.area[d] > capacity {
				overflow = true
			}
		}
	}
	return !overflow
}

// MakespanOrder simulates a list schedule that starts tasks in the given
// topological order and returns the resulting makespan. Infeasible
// mappings yield Infeasible.
func (e *Evaluator) MakespanOrder(m mapping.Mapping, order []graph.NodeID) float64 {
	if !e.Feasible(m) {
		return Infeasible
	}
	g, p := e.G, e.P
	for d := range e.free {
		for s := range e.free[d] {
			e.free[d][s] = 0
		}
	}
	makespan := 0.0
	for _, v := range order {
		d := m[v]
		dev := &p.Devices[d]
		ready := 0.0
		if g.InDegree(v) == 0 {
			// Entry task: source data arrives from the host (default
			// device).
			if sb := g.Task(v).SourceBytes; sb > 0 {
				ready = p.TransferTime(p.Default, d, sb)
			}
		}
		var streamDrain float64 // extra finish constraint from streaming preds
		for _, ei := range g.InEdges(v) {
			ed := g.Edge(ei)
			u := ed.From
			if m[u] == d && dev.Streaming {
				if sigma := e.streamFactor(u, v); sigma > 0 {
					// Dataflow streaming: v may begin once u emits its
					// first chunk, and must drain after u finishes.
					if t := e.start[u] + e.exec[d][u]/sigma; t > ready {
						ready = t
					}
					if t := e.finish[u] + e.exec[d][v]/sigma; t > streamDrain {
						streamDrain = t
					}
					continue
				}
			}
			t := e.finish[u] + p.TransferTime(m[u], d, ed.Bytes)
			if t > ready {
				ready = t
			}
		}
		st := ready
		slot := -1
		if !dev.Spatial {
			// Earliest-free slot of the device.
			slot = 0
			for s := 1; s < len(e.free[d]); s++ {
				if e.free[d][s] < e.free[d][slot] {
					slot = s
				}
			}
			if e.free[d][slot] > st {
				st = e.free[d][slot]
			}
		}
		fin := st + e.exec[d][v]
		if streamDrain > fin {
			fin = streamDrain
		}
		e.start[v], e.finish[v] = st, fin
		if slot >= 0 {
			e.free[d][slot] = fin
		}
		if fin > makespan {
			makespan = fin
		}
	}
	return makespan
}

// Makespan returns the model makespan of m: the minimum list-schedule
// makespan over the evaluator's fixed schedule set (the BFS order alone by
// default; BFS + nRandom random orders after WithSchedules). The schedule
// set is fixed per evaluator, so the cost function is deterministic, as
// the greedy mappers' termination guarantee requires (§III-A).
//
// The evaluation runs on the compiled eval.Engine kernel (CSR-flattened
// orders with bounded early exit); the result is bit-identical to
// ReferenceMakespan.
func (e *Evaluator) Makespan(m mapping.Mapping) float64 {
	return e.Engine().Makespan(m)
}

// ReferenceMakespan computes Makespan with the retained straightforward
// per-order simulation (no kernel, no early exit). It exists as the
// cross-check oracle for the compiled engine and for schedule inspection;
// production paths use Makespan.
func (e *Evaluator) ReferenceMakespan(m mapping.Mapping) float64 {
	best := e.MakespanOrder(m, e.orders[0])
	if best == Infeasible {
		return best
	}
	for _, order := range e.orders[1:] {
		if ms := e.MakespanOrder(m, order); ms < best {
			best = ms
		}
	}
	return best
}

// DeterministicMakespan evaluates only the breadth-first schedule,
// regardless of the configured schedule set.
func (e *Evaluator) DeterministicMakespan(m mapping.Mapping) float64 {
	return e.MakespanOrder(m, e.bfs)
}

// BaselineMakespan returns the makespan of the pure-CPU (default
// device) mapping under the evaluator's schedule set, cached after the
// first call (experiment sweeps query it once per mapper run).
func (e *Evaluator) BaselineMakespan() float64 {
	ms, _ := e.baselineObjectives()
	return ms
}

// TaskTimes exposes the per-task start and finish times of the most recent
// MakespanOrder call (for schedule inspection and examples). The returned
// slices are owned by the evaluator.
func (e *Evaluator) TaskTimes() (start, finish []float64) { return e.start, e.finish }

// LowerBound returns a mapping-independent makespan lower bound: the
// critical path using each task's fastest device, ignoring transfers.
func (e *Evaluator) LowerBound() float64 {
	return e.G.CriticalPathWork(func(v graph.NodeID) float64 { return e.BestExec(v) })
}

// RelativeImprovement computes the paper's quality metric for a mapping
// with the given reported makespan: the positive relative improvement over
// the pure-CPU baseline, truncated at zero (§IV-A).
func (e *Evaluator) RelativeImprovement(makespan float64) float64 {
	base := e.BaselineMakespan()
	if base <= 0 || makespan >= base {
		return 0
	}
	return (base - makespan) / base
}
