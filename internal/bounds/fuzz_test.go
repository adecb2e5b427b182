package bounds

// Differential fuzzing of the soundness contract, in the style of the
// eval engine fuzz harness: the fuzzer drives a random DAG (attributes,
// edges, schedule set all steered by the payload), the real mappers
// (SPFF, HEFT/PEFT, anneal) plus random assignments produce a spread of
// feasible mappings, and every lower bound must stay below the model
// makespan of every one of them — and, on instances of at most
// maxOracleTasks tasks, below the enumerated optimum, which no mapper
// may beat. Bounds must also be bit-identical across engine worker
// counts {1,4} — they are instance functions, not schedule functions.

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

// fuzzGraph decodes a random acyclic instance from the fuzz payload
// (eval fuzz style: u < v keeps edges acyclic).
func fuzzGraph(data []byte) (*graph.DAG, int64) {
	next := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	n := 2 + int(next(0))%14 // 2..15 tasks
	g := graph.New(n, 0)
	for v := 0; v < n; v++ {
		b := next(1 + v)
		g.AddTask(graph.Task{
			Complexity:        float64(1 + b%9),
			Parallelizability: float64(b%5) / 4,
			Streamability:     float64(b % 16), // < 1 disables streaming
			Area:              float64(b % 64),
			SourceBytes:       float64(b) * 1e6,
		})
	}
	ne := int(next(n+1)) % (2 * n)
	for i := 0; i < ne; i++ {
		u := int(next(n+2+2*i)) % n
		v := int(next(n+3+2*i)) % n
		if u < v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+next(n+2+2*i)%10)*1e6)
		}
	}
	return g, int64(next(n + 2 + 2*ne))
}

func FuzzLowerBoundSound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{15, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2})
	f.Add([]byte{3, 0, 0, 0, 2, 0, 1, 1, 2, 9, 9})
	f.Add([]byte{9, 15, 15, 15, 15, 1, 4, 0, 1, 1, 2, 2, 3})
	p := platform.Reference()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, seed := fuzzGraph(data)
		if err := g.Validate(); err != nil {
			t.Skip() // duplicate edges from the byte stream
		}
		nSched := int(seed % 4)
		methods := allMethods()

		// Bounds must be identical across engine worker counts (they
		// never evaluate schedules, so any difference is a determinism
		// bug).
		vals := make([]float64, len(methods))
		for wi, workers := range []int{1, 4} {
			ev := model.NewEvaluator(g, p).WithSchedules(nSched, seed)
			ev.WithEngine(ev.Engine().WithWorkers(workers))
			for i, b := range methods {
				v := b.Bound(ev)
				if !(v >= 0) || math.IsInf(v, 1) || math.IsNaN(v) {
					t.Fatalf("%s: bound %v is not finite non-negative", b.Name(), v)
				}
				if wi == 0 {
					vals[i] = v
				} else if math.Float64bits(v) != math.Float64bits(vals[i]) {
					t.Fatalf("%s: bound differs across workers: %v vs %v", b.Name(), vals[i], v)
				}
			}
		}

		// Every feasible mapping any mapper produces, and on small
		// instances the optimum, must dominate every bound.
		ev := model.NewEvaluator(g, p).WithSchedules(nSched, seed)
		var candidates []mapping.Mapping
		candidates = append(candidates, mapping.Baseline(g, p))
		candidates = append(candidates, heft.MapWithEvaluator(ev, heft.HEFT))
		candidates = append(candidates, heft.MapWithEvaluator(ev, heft.PEFT))
		if m, _, err := decomp.MapWithEvaluator(ev, decomp.Options{
			Strategy: decomp.SeriesParallel, Heuristic: decomp.FirstFit,
		}); err == nil {
			candidates = append(candidates, m)
		}
		if m, _, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
			Algorithm: localsearch.Anneal, Seed: seed, Budget: 150,
		}); err == nil {
			candidates = append(candidates, m)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			m := make(mapping.Mapping, g.NumTasks())
			for v := range m {
				m[v] = rng.Intn(p.NumDevices())
			}
			candidates = append(candidates, m)
		}
		floor, arg := math.Inf(1), mapping.Mapping(nil) // least feasible makespan seen
		for _, m := range candidates {
			if ms := ev.Makespan(m); ms != model.Infeasible && ms < floor {
				floor, arg = ms, m
			}
		}
		if g.NumTasks() <= maxOracleTasks {
			opt, optArg := optimum(t, ev)
			if floor < opt {
				t.Fatalf("mapping %v has makespan %v below the enumerated optimum %v", arg, floor, opt)
			}
			floor, arg = opt, optArg
		}
		for i, b := range methods {
			if vals[i] > floor*(1+1e-9)+1e-9 {
				t.Fatalf("%s: bound %v exceeds feasible makespan %v (mapping %v)",
					b.Name(), vals[i], floor, arg)
			}
		}
	})
}
