package eval

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

// fusedMsEn runs the fused [makespan, energy] pass of the vector API and
// returns its two columns.
func fusedMsEn(eng *Engine, ops []Op, cutoff float64) (ms, en []float64) {
	cols := eng.EvaluateBatchVec(ops, []Objective{MakespanObjective(), EnergyObjective()}, cutoff)
	return cols[0], cols[1]
}

// randomOps draws a mix of whole-mapping and patched ops around base.
func randomOps(rng *rand.Rand, g *graph.DAG, p *platform.Platform, base mapping.Mapping, count int) []Op {
	ops := make([]Op, 0, count)
	for i := 0; i < count; i++ {
		if rng.Intn(4) == 0 {
			m := base.Clone()
			for v := range m {
				if rng.Intn(3) == 0 {
					m[v] = rng.Intn(p.NumDevices())
				}
			}
			ops = append(ops, Op{Base: m})
			continue
		}
		v := graph.NodeID(rng.Intn(g.NumTasks()))
		ops = append(ops, Op{Base: base, Patch: []graph.NodeID{v}, Device: rng.Intn(p.NumDevices())})
	}
	return ops
}

// TestCacheBitIdentical evaluates identical op streams through a cached
// and an uncached engine under varying cutoffs. Every result at or below
// the cutoff (and every Infeasible) must be bit-identical; results above
// the cutoff must be above it on both engines (the raw clamped value may
// differ, which is exactly the engine's cutoff contract).
func TestCacheBitIdentical(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(7))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	plain := NewEngineSchedules(g, p, 8, 3, Options{Workers: 1})
	cached := plain.WithCache(NewCache())

	base := mapping.Mapping(make([]int, g.NumTasks()))
	ref := plain.Makespan(base)
	cutoffs := []float64{math.Inf(1), ref, ref * 0.9, ref * 0.5}
	for round := 0; round < 3; round++ { // repeated rounds re-propose ops -> hits
		ops := randomOps(rng, g, p, base, 200)
		for _, cutoff := range cutoffs {
			want := plain.EvaluateBatch(ops, cutoff)
			got := cached.EvaluateBatch(ops, cutoff)
			for i := range ops {
				switch {
				case want[i] == Infeasible || want[i] <= cutoff:
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("cutoff %g op %d: cached %v != plain %v", cutoff, i, got[i], want[i])
					}
				default:
					if got[i] <= cutoff {
						t.Fatalf("cutoff %g op %d: cached %v within cutoff, plain %v beyond", cutoff, i, got[i], want[i])
					}
				}
			}
		}
	}
	if st := cached.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("no cache hits across repeated identical op streams: %+v", st)
	}
}

// TestCacheMOLazyEnergy checks the multi-objective path: energies are
// exact on hits (including entries first stored by the single-objective
// path, whose energy is materialized lazily).
func TestCacheMOLazyEnergy(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(11))
	g := gen.SeriesParallel(rng, 30, gen.DefaultAttr())
	plain := NewEngineSchedules(g, p, 5, 1, Options{Workers: 1})
	cached := plain.WithCache(NewCache())

	ops := randomOps(rng, g, p, mapping.Mapping(make([]int, g.NumTasks())), 100)
	// Warm via the single-objective path (entries without energy).
	cached.EvaluateBatch(ops, math.Inf(1))
	gotMS, gotEn := fusedMsEn(cached, ops, math.Inf(1))
	wantMS, wantEn := fusedMsEn(plain, ops, math.Inf(1))
	for i := range ops {
		if math.Float64bits(gotMS[i]) != math.Float64bits(wantMS[i]) {
			t.Fatalf("op %d: makespan %v != %v", i, gotMS[i], wantMS[i])
		}
		if math.Float64bits(gotEn[i]) != math.Float64bits(wantEn[i]) {
			t.Fatalf("op %d: energy %v != %v", i, gotEn[i], wantEn[i])
		}
	}
	// A second fused pass must serve the upgraded entries.
	gotMS2, gotEn2 := fusedMsEn(cached, ops, math.Inf(1))
	for i := range ops {
		if gotMS2[i] != gotMS[i] || gotEn2[i] != gotEn[i] {
			t.Fatalf("op %d: fused results unstable across cached passes", i)
		}
	}
}

// TestCacheClampedResultsNotStored drives evaluations whose results
// exceed the cutoff and verifies the clamped lower bounds never enter
// the cache (a later uncut evaluation must still produce the exact
// makespan).
func TestCacheClampedResultsNotStored(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(5))
	g := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 5, 1, Options{Workers: 1}).WithCache(NewCache())
	ref := NewEngineSchedules(g, p, 5, 1, Options{Workers: 1})

	m := mapping.Mapping(make([]int, g.NumTasks()))
	exact := ref.Makespan(m)
	if got := eng.MakespanCutoff(m, exact/4); got <= exact/4 {
		t.Fatalf("cutoff evaluation unexpectedly within cutoff: %v", got)
	}
	if got := eng.Makespan(m); math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("exact evaluation after clamped one: %v != %v (stale clamped entry?)", got, exact)
	}
	// And the now-exact entry serves subsequent cutoff calls.
	if got := eng.MakespanCutoff(m, exact/4); math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("cached exact value not served under cutoff: %v != %v", got, exact)
	}
}

// TestCacheInfeasibleExact pins that the Infeasible sentinel is cached
// (it is definitive for any cutoff) and served on both paths.
func TestCacheInfeasibleExact(t *testing.T) {
	g := graph.New(0, 0)
	a := g.AddTask(graph.Task{Complexity: 5, SourceBytes: 1e6, Streamability: 2, Area: 1000})
	b := g.AddTask(graph.Task{Complexity: 5, Streamability: 2, Area: 1000})
	g.AddEdge(a, b, 1e6)
	p := platform.Reference() // FPGA area 120 < 1000
	eng := NewEngine(g, p, nil, Options{Workers: 1}).WithCache(NewCache())
	bad := mapping.Mapping{2, 2}
	for i := 0; i < 2; i++ {
		if ms := eng.MakespanCutoff(bad, 0.001); ms != Infeasible {
			t.Fatalf("pass %d: infeasible mapping returned %v", i, ms)
		}
		ms, en := fusedMsEn(eng, []Op{{Base: bad}}, math.Inf(1))
		if ms[0] != Infeasible || en[0] != Infeasible {
			t.Fatalf("pass %d: fused infeasible returned (%v, %v)", i, ms[0], en[0])
		}
	}
	if st := eng.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("infeasible sentinel not served from cache: %+v", st)
	}
}

// TestCacheTooManyDevices pins the >255-device guard: byte keys cannot
// encode such platforms, so WithCache must fail loudly (and Cacheable
// must report the engine as uncacheable) rather than corrupt keys or
// silently drop the cache.
func TestCacheTooManyDevices(t *testing.T) {
	base := platform.Reference().Devices[0]
	p := &platform.Platform{}
	for i := 0; i < 300; i++ {
		p.Devices = append(p.Devices, base)
	}
	g := graph.New(0, 0)
	g.AddTask(graph.Task{Complexity: 2, SourceBytes: 1e6, Streamability: 1})
	eng := NewEngine(g, p, nil, Options{Workers: 1})
	if eng.Cacheable() {
		t.Fatal("Cacheable accepted a 300-device platform; byte keys would collide")
	}
	if msg := mustPanic(func() { eng.WithCache(NewCache()) }); msg == "" {
		t.Fatal("WithCache silently accepted a 300-device platform")
	}
}

// mustPanic runs f and returns the panic message ("" if f returned).
func mustPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCacheConcurrentHammer hammers one shared cache from many
// goroutines issuing overlapping batches (run under -race in CI). Every
// result must equal the uncached reference.
func TestCacheConcurrentHammer(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(13))
	g := gen.SeriesParallel(rng, 30, gen.DefaultAttr())
	plain := NewEngineSchedules(g, p, 5, 2, Options{Workers: 1})
	cached := plain.WithCache(NewCache()).WithWorkers(4)

	base := mapping.Mapping(make([]int, g.NumTasks()))
	ops := randomOps(rng, g, p, base, 300)
	want := plain.EvaluateBatch(ops, math.Inf(1))
	wantMS, wantEn := fusedMsEn(plain, ops, math.Inf(1))

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				if w%2 == 0 {
					got := cached.EvaluateBatch(ops, math.Inf(1))
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							select {
							case errs <- "EvaluateBatch diverged under concurrency":
							default:
							}
							return
						}
					}
				} else {
					gotMS, gotEn := fusedMsEn(cached, ops, math.Inf(1))
					for i := range gotMS {
						if math.Float64bits(gotMS[i]) != math.Float64bits(wantMS[i]) ||
							math.Float64bits(gotEn[i]) != math.Float64bits(wantEn[i]) {
							select {
							case errs <- "fused EvaluateBatchVec diverged under concurrency":
							default:
							}
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCacheBoundToKernel pins the kernel binding: a cache attached to
// one engine must refuse engines compiled from a different kernel with
// an explicit panic (same-length mappings under a different graph would
// silently alias; a silently-dropped cache — the old behaviour — would
// just as silently stop hitting when attached across kernel rebuilds).
func TestCacheBoundToKernel(t *testing.T) {
	p := platform.Reference()
	gA := gen.SeriesParallel(rand.New(rand.NewSource(1)), 20, gen.DefaultAttr())
	gB := gen.SeriesParallel(rand.New(rand.NewSource(2)), 20, gen.DefaultAttr())
	c := NewCache()
	engA := NewEngine(gA, p, nil, Options{Workers: 1}).WithCache(c)
	if engA.Cache() == nil {
		t.Fatal("first attach rejected")
	}
	// Re-attaching to the same kernel (and to WithWorkers siblings, which
	// share it) is the documented re-bind path and must keep working.
	if engA.WithCache(c).Cache() != c {
		t.Fatal("re-attach to the bound kernel rejected")
	}
	if engA.WithWorkers(4).Cache() == nil {
		t.Fatal("WithWorkers sibling lost the cache despite sharing the kernel")
	}
	if msg := mustPanic(func() { NewEngine(gB, p, nil, Options{Workers: 1}).WithCache(c) }); msg == "" {
		t.Fatal("cache silently attached to a different kernel; aliased entries would return wrong makespans")
	} else if !strings.Contains(msg, "different kernel") {
		t.Fatalf("cross-kernel attach panic does not explain itself: %q", msg)
	}
	// Different schedule set over the same graph is a different kernel too.
	if mustPanic(func() { NewEngineSchedules(gA, p, 5, 1, Options{Workers: 1}).WithCache(c) }) == "" {
		t.Fatal("cache silently attached across schedule sets")
	}
	// The failed attaches must not have poisoned the binding: the original
	// kernel still works.
	if engA.WithCache(c).Cache() != c {
		t.Fatal("binding lost after rejected attaches")
	}
}
