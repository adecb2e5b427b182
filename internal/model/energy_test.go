package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

func energyPlatform() *platform.Platform {
	p := twoDevicePlatform()
	p.Devices[0].PowerW = 100
	p.Devices[1].PowerW = 10
	return p
}

func TestEnergyByHand(t *testing.T) {
	g := graph.New(2, 1)
	g.AddTask(graph.Task{Complexity: 1, Parallelizability: 0, Streamability: 1, SourceBytes: 1e9})
	g.AddTask(graph.Task{Complexity: 1, Parallelizability: 0, Streamability: 1})
	g.AddEdge(0, 1, 1e9)
	p := energyPlatform()
	ev := NewEvaluator(g, p)
	// Both on CPU: 2 x 1s x 100W = 200 J.
	if got := ev.Energy(mapping.Mapping{0, 0}); math.Abs(got-200) > 1e-9 {
		t.Fatalf("cpu energy = %v, want 200", got)
	}
	// Both on FPGA: 2 x 1s x 10W = 20 J (transfer energy not modeled).
	if got := ev.Energy(mapping.Mapping{1, 1}); math.Abs(got-20) > 1e-9 {
		t.Fatalf("fpga energy = %v, want 20", got)
	}
}

func TestEnergyInfeasible(t *testing.T) {
	g := graph.New(1, 0)
	g.AddTask(graph.Task{Complexity: 1, Area: 1000, SourceBytes: 1})
	p := energyPlatform()
	ev := NewEvaluator(g, p)
	if got := ev.Energy(mapping.Mapping{1}); got != Infeasible {
		t.Fatalf("energy of infeasible mapping = %v", got)
	}
}

func TestWeightedObjectiveExtremes(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(3))
	g := gen.SeriesParallel(rng, 30, gen.DefaultAttr())
	ev := NewEvaluator(g, p).WithSchedules(10, 1)
	base := mapping.Baseline(g, p)
	pureTime := ev.WeightedObjective(1, 0)
	pureEnergy := ev.WeightedObjective(0, 1)
	// The baseline scores exactly 1 on each pure normalized objective.
	if got := pureTime(base); math.Abs(got-1) > 1e-9 {
		t.Fatalf("baseline pure-time objective = %v, want 1", got)
	}
	if got := pureEnergy(base); math.Abs(got-1) > 1e-9 {
		t.Fatalf("baseline pure-energy objective = %v, want 1", got)
	}
}

// TestWeightedObjectiveCachesBaseline: constructing weighted objectives
// must not recompute the baseline makespan/energy after the first call
// (regression: sweeps used to pay a full baseline simulation per
// weight). The test plants a sentinel in the cache; a recomputation
// would overwrite it and change the objective's normalization.
func TestWeightedObjectiveCachesBaseline(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(8))
	g := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	ev := NewEvaluator(g, p).WithSchedules(5, 1)
	base := mapping.Baseline(g, p)

	obj := ev.WeightedObjective(1, 0) // primes the cache
	trueMs := ev.Makespan(base)
	if got := obj(base); math.Abs(got-1) > 1e-9 {
		t.Fatalf("baseline pure-time objective = %v, want 1", got)
	}
	if !ev.baseValid || ev.baseMs != trueMs {
		t.Fatalf("cache not primed: valid=%v baseMs=%v want %v", ev.baseValid, ev.baseMs, trueMs)
	}

	// Plant a sentinel: O(1) construction must read it, not recompute.
	ev.baseMs = 2 * trueMs
	obj2 := ev.WeightedObjective(1, 0)
	if got, want := obj2(base), trueMs/(2*trueMs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("WeightedObjective recomputed the baseline: objective = %v, want sentinel-normalized %v", got, want)
	}
	if got := ev.BaselineMakespan(); got != 2*trueMs {
		t.Fatalf("BaselineMakespan bypassed the cache: %v", got)
	}

	// WithSchedules must invalidate (the baseline makespan depends on
	// the schedule set).
	ev.WithSchedules(5, 1)
	if ev.baseValid {
		t.Fatal("WithSchedules did not invalidate the baseline cache")
	}
	obj3 := ev.WeightedObjective(1, 0)
	if got := obj3(base); math.Abs(got-1) > 1e-9 {
		t.Fatalf("post-invalidation objective = %v, want 1", got)
	}

	// Clone shares the primed cache.
	if c := ev.Clone(); !c.baseValid || c.baseMs != ev.baseMs {
		t.Fatal("Clone dropped the baseline cache")
	}
}

func TestBestScheduleConsistent(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(6))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	ev := NewEvaluator(g, p).WithSchedules(20, 1)
	m := mapping.Baseline(g, p)
	s := ev.BestSchedule(m)
	if s == nil {
		t.Fatal("nil schedule for feasible mapping")
	}
	if math.Abs(s.Makespan-ev.Makespan(m)) > 1e-12 {
		t.Fatalf("schedule makespan %v != evaluator makespan %v", s.Makespan, ev.Makespan(m))
	}
	if len(s.Tasks) != g.NumTasks() {
		t.Fatal("schedule must cover every task")
	}
	// Precedence sanity: every finish >= start; makespan = max finish.
	maxFin := 0.0
	for _, ts := range s.Tasks {
		if ts.Finish < ts.Start {
			t.Fatal("finish before start")
		}
		if ts.Finish > maxFin {
			maxFin = ts.Finish
		}
	}
	if math.Abs(maxFin-s.Makespan) > 1e-9 {
		t.Fatalf("makespan %v != max finish %v", s.Makespan, maxFin)
	}
	for d, u := range s.Utilization {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("device %d utilization %v out of range", d, u)
		}
	}
}

func TestBestScheduleInfeasible(t *testing.T) {
	g := graph.New(1, 0)
	g.AddTask(graph.Task{Complexity: 1, Area: 1e9, SourceBytes: 1})
	p := platform.Reference()
	ev := NewEvaluator(g, p)
	if s := ev.BestSchedule(mapping.Mapping{2}); s != nil {
		t.Fatal("expected nil schedule for infeasible mapping")
	}
}

func TestWriteGantt(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(7))
	g := gen.SeriesParallel(rng, 10, gen.DefaultAttr())
	ev := NewEvaluator(g, p)
	s := ev.BestSchedule(mapping.Baseline(g, p))
	var sb strings.Builder
	s.WriteGantt(&sb, g, func(d int) string { return p.Devices[d].Name })
	out := sb.String()
	if !strings.Contains(out, "epyc7351p") || !strings.Contains(out, "makespan") {
		t.Fatalf("gantt rendering incomplete:\n%s", out)
	}
}
