package eval_test

// Black-box tests of the Incremental session: equivalence with the
// engine on materialized mappings (exact and under the cutoff
// contract), lazy-apply folding across the pendCap overflow, Rebase,
// gate-driven fallback accounting and the steady-state allocation
// audit.

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

// TestIncrementalMatchesEngine drives a long hill-climb-style session —
// single-task moves, co-moves, rejections, pendCap-crossing apply runs
// and occasional rebases — and checks every Evaluate against
// Engine.MakespanCutoff on the materialized mapping under the cutoff
// contract, and every Makespan against Engine.Makespan.
func TestIncrementalMatchesEngine(t *testing.T) {
	p := platform.Reference()
	nd := p.NumDevices()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(seed)*15
		g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
		ev := model.NewEvaluator(g, p).WithSchedules(6, seed)
		eng := ev.Engine()
		base := mapping.Baseline(g, p)
		inc := eng.Incremental(base, nil)
		if inc == nil {
			t.Fatal("Incremental returned nil on a default engine")
		}
		cur := base.Clone()
		scratch := base.Clone()
		for step := 0; step < 120; step++ {
			np := 1 + rng.Intn(2)
			patch := []graph.NodeID{graph.NodeID(rng.Intn(n))}
			if np == 2 {
				for {
					v := graph.NodeID(rng.Intn(n))
					if v != patch[0] {
						patch = append(patch, v)
						break
					}
				}
			}
			dev := rng.Intn(nd)
			copy(scratch, cur)
			scratch.Assign(patch, dev)
			want := eng.Makespan(scratch)
			cutoff := math.Inf(1)
			if rng.Intn(2) == 0 && want > 0 && want != model.Infeasible {
				cutoff = want * (0.8 + 0.4*rng.Float64())
			}
			got := inc.Evaluate(patch, dev, cutoff)
			switch {
			case got <= cutoff || math.IsInf(cutoff, 1):
				if got != want {
					t.Fatalf("seed %d step %d: eval %v != engine %v (cutoff %v)", seed, step, got, want, cutoff)
				}
			case got > want:
				t.Fatalf("seed %d step %d: certificate %v exceeds exact %v", seed, step, got, want)
			case want <= cutoff:
				t.Fatalf("seed %d step %d: false reject %v of %v <= cutoff %v", seed, step, got, want, cutoff)
			}
			// Accept aggressively: long accept runs push every order's
			// pending list across pendCap and exercise the fold path.
			if rng.Intn(3) != 0 {
				inc.Apply(patch, dev)
				cur.Assign(patch, dev)
			}
			if rng.Intn(10) == 0 {
				for v := range cur {
					cur[v] = rng.Intn(nd)
				}
				inc.Rebase(cur)
			}
			if rng.Intn(8) == 0 {
				if got, want := inc.Makespan(), eng.Makespan(cur); got != want {
					t.Fatalf("seed %d step %d: session makespan %v != engine %v", seed, step, got, want)
				}
			}
		}
		st := inc.Stats()
		if st.Evals != 120 || st.Applies == 0 || st.Rebuilds == 0 {
			t.Fatalf("seed %d: implausible session stats %+v", seed, st)
		}
		inc.Close()
		// Pool hygiene: the session's returned buffers must not poison
		// subsequent engine evaluations.
		if got, want := eng.Makespan(cur), ev.ReferenceMakespan(cur); got != want {
			t.Fatalf("seed %d: post-Close engine %v != reference %v", seed, got, want)
		}
	}
}

// TestIncrementalGateFallback pins the gate semantics: single-task
// patches always take the fast path, multi-task patches consult the
// gate, and both paths return identical values.
func TestIncrementalGateFallback(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(11))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(5, 11)
	eng := ev.Engine()
	base := mapping.Baseline(g, p)

	reject := eng.Incremental(base, func([]graph.NodeID) bool { return false })
	accept := eng.Incremental(base, func([]graph.NodeID) bool { return true })
	defer reject.Close()
	defer accept.Close()

	single := []graph.NodeID{3}
	pair := []graph.NodeID{3, 7}
	for dev := 0; dev < p.NumDevices(); dev++ {
		if a, b := reject.Evaluate(single, dev, math.Inf(1)), accept.Evaluate(single, dev, math.Inf(1)); a != b {
			t.Fatalf("dev %d: single-task eval differs across gates: %v vs %v", dev, a, b)
		}
		a, b := reject.Evaluate(pair, dev, math.Inf(1)), accept.Evaluate(pair, dev, math.Inf(1))
		if a != b {
			t.Fatalf("dev %d: pair eval differs across gates: %v vs %v", dev, a, b)
		}
		if want := eng.Makespan(base.Clone().Assign(pair, dev)); a != want {
			t.Fatalf("dev %d: gated pair eval %v != engine %v", dev, a, want)
		}
	}
	nd := p.NumDevices()
	if st := reject.Stats(); st.Fallback != nd || st.FastPath != nd {
		t.Fatalf("rejecting gate stats %+v: want %d fallbacks (pairs) and %d fast (singles)", st, nd, nd)
	}
	if st := accept.Stats(); st.Fallback != 0 || st.FastPath != 2*nd {
		t.Fatalf("accepting gate stats %+v: want all %d evals on the fast path", st, 2*nd)
	}
}

// TestIncrementalEdgeCases covers the degenerate inputs: an empty patch
// evaluates the base itself, and a zero-task graph evaluates to
// makespan 0.
func TestIncrementalEdgeCases(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(3))
	g := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(4, 3)
	eng := ev.Engine()
	base := mapping.Baseline(g, p)

	inc := eng.Incremental(base, nil)
	defer inc.Close()
	if got, want := inc.Evaluate(nil, 0, math.Inf(1)), eng.Makespan(base); got != want {
		t.Fatalf("empty-patch eval %v != base makespan %v", got, want)
	}
	inc.Apply(nil, 0) // must be a no-op
	if got, want := inc.Makespan(), eng.Makespan(base); got != want {
		t.Fatalf("makespan %v != engine %v after empty apply", got, want)
	}

	empty := graph.New(0, 0)
	eve := model.NewEvaluator(empty, p).WithSchedules(2, 1)
	ince := eve.Engine().Incremental(mapping.Mapping{}, nil)
	defer ince.Close()
	if got := ince.Makespan(); got != 0 {
		t.Fatalf("zero-task session makespan %v, want 0", got)
	}
}

// TestIncrementalSteadyStateAllocs is the scratch-reuse allocation
// audit: once a session is warm, Evaluate and Apply must not allocate —
// the session owns its recording, scratch state and pending lists for
// its whole lifetime.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(5))
	g := gen.SeriesParallel(rng, 60, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(8, 5)
	eng := ev.Engine()
	base := mapping.Baseline(g, p)
	inc := eng.Incremental(base, nil)
	defer inc.Close()

	n := g.NumTasks()
	nd := p.NumDevices()
	patch := make([]graph.NodeID, 1)
	step := 0
	move := func() {
		patch[0] = graph.NodeID(step % n)
		dev := step % nd
		if inc.Evaluate(patch, dev, math.Inf(1)) < math.Inf(1) && step%7 == 0 {
			inc.Apply(patch, dev)
		}
		step++
	}
	for i := 0; i < 50; i++ {
		move() // warm up: recording built, pending lists at capacity
	}
	if allocs := testing.AllocsPerRun(200, move); allocs != 0 {
		t.Fatalf("steady-state session move allocates %.1f times per run, want 0", allocs)
	}
}
