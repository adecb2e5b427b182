package bounds

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

func allMethods() []LowerBound {
	return append(Combinatorial(), LPRelaxation{}, MILPAnytime{MaxNodes: 32})
}

// referenceMakespans returns the model makespans of a spread of feasible
// mappings produced by the real mappers (plus the baseline), which every
// bound must stay below.
func referenceMakespans(t testing.TB, ev *model.Evaluator, seed int64) []float64 {
	t.Helper()
	g, p := ev.G, ev.P
	var out []float64
	add := func(m mapping.Mapping) {
		if ms := ev.Makespan(m); ms != model.Infeasible {
			out = append(out, ms)
		}
	}
	add(mapping.Baseline(g, p))
	add(heft.MapWithEvaluator(ev, heft.HEFT))
	add(heft.MapWithEvaluator(ev, heft.PEFT))
	if m, _, err := decomp.MapWithEvaluator(ev, decomp.Options{
		Strategy: decomp.SeriesParallel, Heuristic: decomp.FirstFit,
	}); err == nil {
		add(m)
	}
	if m, _, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
		Algorithm: localsearch.Anneal, Seed: seed, Budget: 400,
	}); err == nil {
		add(m)
	}
	if len(out) == 0 {
		t.Fatal("no feasible reference mapping found")
	}
	return out
}

func TestBoundsSoundOnSeedGraphs(t *testing.T) {
	p := platform.Reference()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.SeriesParallel(rng, 30, gen.DefaultAttr())
		ev := model.NewEvaluator(g, p).WithSchedules(10, seed)
		refs := referenceMakespans(t, ev, seed)
		for _, b := range allMethods() {
			v := b.Bound(ev)
			if !(v >= 0) || math.IsInf(v, 1) {
				t.Fatalf("seed %d %s: bound %v not a finite non-negative value", seed, b.Name(), v)
			}
			for _, ms := range refs {
				if v > ms+1e-6 {
					t.Errorf("seed %d %s: bound %v exceeds feasible makespan %v", seed, b.Name(), v, ms)
				}
			}
		}
	}
}

// TestBoundsDeterministic pins that every bound is a pure function of
// the instance: same value on repeated evaluation, on a cloned
// evaluator, and independent of the engine's worker count.
func TestBoundsDeterministic(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(7))
	g := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	for _, b := range allMethods() {
		var vals []float64
		for _, workers := range []int{1, 4} {
			ev := model.NewEvaluator(g, p).WithSchedules(5, 7)
			ev.WithEngine(ev.Engine().WithWorkers(workers))
			vals = append(vals, b.Bound(ev), b.Bound(ev.Clone()))
		}
		for _, v := range vals[1:] {
			if math.Float64bits(v) != math.Float64bits(vals[0]) {
				t.Fatalf("%s: bound not deterministic: %v", b.Name(), vals)
			}
		}
	}
}

// TestCertifyPicksBest checks the certificate carries every component
// and selects the max.
func TestCertifyPicksBest(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(2))
	g := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p)
	c := Certify(ev)
	if len(c.Components) != len(Combinatorial()) {
		t.Fatalf("certificate has %d components, want %d", len(c.Components), len(Combinatorial()))
	}
	best := 0.0
	for _, v := range c.Components {
		if v > best {
			best = v
		}
	}
	if c.Value != best {
		t.Fatalf("certificate value %v != best component %v", c.Value, best)
	}
	if got, ok := c.Components[c.Name]; !ok || got != c.Value {
		t.Fatalf("certificate name %q does not match its value", c.Name)
	}
}

// TestTransferPathDominatesCriticalPath: the device-indexed DP with real
// transfer charges can never be weaker than the transfer-free critical
// path.
func TestTransferPathDominatesCriticalPath(t *testing.T) {
	p := platform.Reference()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
		ev := model.NewEvaluator(g, p)
		cp := (CriticalPath{}).Bound(ev)
		tp := (TransferPath{}).Bound(ev)
		if tp < cp-1e-9 {
			t.Fatalf("seed %d: transfer-path %v below critical-path %v", seed, tp, cp)
		}
	}
}

// TestStreamingAwareness pins the motivating soundness counterexample:
// on a two-task streaming chain co-mapped on the FPGA the simulated
// makespan is max(e_u/sigma + e_v, e_u + e_v/sigma), strictly below the
// naive critical path e_u + e_v — the bounds must stay below it.
func TestStreamingAwareness(t *testing.T) {
	p := platform.Reference()
	// Heavy tasks with high pipelining depth: the FPGA (6 GOPS x 8) beats
	// the CPU slot and GPU, so the naive critical path is 2x the FPGA
	// execution time while the streaming overlap runs the chain in ~1.125x.
	g := graph.New(2, 1)
	u := g.AddTask(graph.Task{Complexity: 1e6, Parallelizability: 0.5, Streamability: 8, Area: 10, SourceBytes: 1e6})
	v := g.AddTask(graph.Task{Complexity: 1e6, Parallelizability: 0.5, Streamability: 8, Area: 10})
	g.AddEdge(u, v, 1e6)
	ev := model.NewEvaluator(g, p)

	// Find the FPGA device and the co-mapped makespan.
	fpga := -1
	for d := range p.Devices {
		if p.Devices[d].Streaming {
			fpga = d
		}
	}
	if fpga < 0 {
		t.Fatal("reference platform has no streaming device")
	}
	m := mapping.Mapping{fpga, fpga}
	ms := ev.Makespan(m)
	naive := g.CriticalPathWork(ev.BestExec)
	if naive <= ms+1e-9 {
		t.Skip("instance does not exhibit the streaming overlap counterexample")
	}
	for _, b := range allMethods() {
		if got := b.Bound(ev); got > ms+1e-9 {
			t.Errorf("%s: bound %v exceeds streaming-overlapped makespan %v (naive critical path %v)",
				b.Name(), got, ms, naive)
		}
	}
}

func TestGap(t *testing.T) {
	cases := []struct {
		ms, lb, want float64
	}{
		{100, 80, 0.2},
		{100, 100, 0},
		{100, 120, 0}, // bound above incumbent clamps to 0
		{100, 0, 1},   // nothing certified
		{0, 10, 1},
		{model.Infeasible, 10, 1},
		{100, -5, 1},
	}
	for _, c := range cases {
		if got := Gap(c.ms, c.lb); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Gap(%v,%v) = %v, want %v", c.ms, c.lb, got, c.want)
		}
	}
}

// TestDeviceLoadUnconstrainedSpatial: an unconstrained spatial device
// (Area <= 0) lets all work escape, so the load bound must degenerate
// to the trivial 0 rather than claim anything.
func TestDeviceLoadUnconstrainedSpatial(t *testing.T) {
	p := platform.Reference()
	clone := *p
	clone.Devices = append([]platform.Device(nil), p.Devices...)
	for d := range clone.Devices {
		if clone.Devices[d].Spatial {
			clone.Devices[d].Area = 0
		}
	}
	rng := rand.New(rand.NewSource(3))
	g := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	if got := (DeviceLoad{}).Bound(model.NewEvaluator(g, &clone)); got != 0 {
		t.Fatalf("unconstrained spatial area: bound %v, want 0", got)
	}
}
