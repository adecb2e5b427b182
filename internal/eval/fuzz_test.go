package eval_test

// Differential fuzzing of the compiled engine against the retained
// straightforward simulation, in the style of the graph/sp fuzz tests:
// the fuzzer drives a random DAG, random task attributes, a random
// mapping and a random schedule set, and the engine must reproduce
// model.Evaluator.ReferenceMakespan bit-for-bit — serially, batched
// over 1 and 4 workers, and on the patched prefix-resume path — and,
// under a finite cutoff, return exactly what the cutoff contract makes
// of it. The payload's last byte picks the platform:
// the reference one or a variant with multi-slot CPU and GPU (see
// eval.SlotPlatforms).

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
)

// fuzzInstance decodes (graph, mapping, schedule seed) from the fuzz
// payload. Node count, edges, attributes and device assignments all
// come from data so the fuzzer can steer every dimension.
func fuzzInstance(data []byte, nd int) (*graph.DAG, mapping.Mapping, int64) {
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
	// Edges as byte pairs; u < v keeps the graph acyclic (sp fuzz style).
	ne := int(next(n+1)) % (2 * n)
	for i := 0; i < ne; i++ {
		u := int(next(n+2+2*i)) % n
		v := int(next(n+3+2*i)) % n
		if u < v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+next(n+2+2*i)%10)*1e6)
		}
	}
	m := make(mapping.Mapping, n)
	off := n + 2 + 2*ne
	for v := 0; v < n; v++ {
		m[v] = int(next(off+v)) % nd
	}
	return g, m, int64(next(off + n))
}

func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{15, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2})
	f.Add([]byte{3, 0, 0, 0, 2, 0, 1, 1, 2, 9, 9})
	plats := eval.SlotPlatforms()
	f.Fuzz(func(t *testing.T, data []byte) {
		p := plats[0]
		if len(data) > 0 {
			p = plats[int(data[len(data)-1])%len(plats)]
		}
		nd := p.NumDevices()
		g, m, seed := fuzzInstance(data, nd)
		if err := g.Validate(); err != nil {
			t.Skip() // duplicate edges from the byte stream
		}
		nSched := int(seed % 5)
		ev := model.NewEvaluator(g, p).WithSchedules(nSched, seed)
		want := ev.ReferenceMakespan(m)

		eng := ev.Engine()
		if got := eng.Makespan(m); got != want {
			t.Fatalf("engine %v (%x) != reference %v (%x)",
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if feas := eng.Feasible(m); feas != ev.Feasible(m) {
			t.Fatal("feasibility mismatch")
		}

		// Batched, serial and parallel, plain and patched: the op set
		// shares m as base so the prefix-resume path engages.
		var ops []eval.Op
		ops = append(ops, eval.Op{Base: m})
		wantBatch := []float64{want}
		for v := 0; v < g.NumTasks(); v++ {
			d := (m[v] + 1 + v) % nd
			ops = append(ops, eval.Op{Base: m, Patch: []graph.NodeID{graph.NodeID(v)}, Device: d})
			wantBatch = append(wantBatch, ev.ReferenceMakespan(m.Clone().Assign([]graph.NodeID{graph.NodeID(v)}, d)))
		}
		for _, workers := range []int{1, 4} {
			got := eng.WithWorkers(workers).EvaluateBatch(ops, math.Inf(1))
			for i := range got {
				if got[i] != wantBatch[i] {
					t.Fatalf("workers=%d op %d: %v != reference %v", workers, i, got[i], wantBatch[i])
				}
			}
		}

		// Cutoff contract: the exact makespan at or below the cutoff,
		// Infeasible, or math.Nextafter(cutoff, +Inf) above it — bit for
		// bit on every path.
		if want != model.Infeasible {
			for _, cutoff := range []float64{want, want * 0.75, want * 1.25} {
				if got, w := eng.MakespanCutoff(m, cutoff), eval.WantUnder(want, cutoff); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("cutoff %v: got %v, want %v (exact %v)", cutoff, got, w, want)
				}
			}
			for _, workers := range []int{1, 4} {
				got := eng.WithWorkers(workers).EvaluateBatch(ops, want)
				for i := range got {
					if w := eval.WantUnder(wantBatch[i], want); math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("workers=%d cutoff op %d: %v, want %v (exact %v)", workers, i, got[i], w, wantBatch[i])
					}
				}
			}
		}

		// Incremental session: a payload-derived move sequence
		// interleaves Evaluate (exact and under a cutoff), Apply, Rebase
		// and Makespan; every result must stay bit-identical to the
		// reference simulation of the materialized mapping. The parity
		// gate disables the dominance abort for odd-sized multi-task
		// patches, so replays with and without it are both driven.
		n := g.NumTasks()
		rng := rand.New(rand.NewSource(seed<<8 | int64(len(data)%251)))
		gate := func(p []graph.NodeID) bool { return len(p)%2 == 0 }
		inc := eng.Incremental(m, gate)
		cur := m.Clone()
		for step := 0; step < 10; step++ {
			np := 1 + rng.Intn(3)
			if np > n {
				np = n
			}
			dev := rng.Intn(nd)
			patch := make([]graph.NodeID, 0, np)
			for len(patch) < np {
				v := graph.NodeID(rng.Intn(n))
				dup := false
				for _, u := range patch {
					dup = dup || u == v
				}
				if !dup {
					patch = append(patch, v)
				}
			}
			cand := cur.Clone().Assign(patch, dev)
			wantC := ev.ReferenceMakespan(cand)
			if got := inc.Evaluate(patch, dev, math.Inf(1)); got != wantC {
				t.Fatalf("session step %d: eval %v != reference %v (patch %v dev %d)",
					step, got, wantC, patch, dev)
			}
			if wantC != model.Infeasible && wantC > 0 {
				cutoff := wantC * [3]float64{0.75, 1, 1.25}[rng.Intn(3)]
				if got, w := inc.Evaluate(patch, dev, cutoff), eval.WantUnder(wantC, cutoff); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("session step %d cutoff %v: got %v, want %v (exact %v)", step, cutoff, got, w, wantC)
				}
			}
			switch rng.Intn(4) {
			case 0, 1:
				inc.Apply(patch, dev)
				cur = cand
			case 2: // rejected candidate; the session base is unchanged
			case 3:
				for v := range cur {
					cur[v] = rng.Intn(nd)
				}
				inc.Rebase(cur)
			}
			if rng.Intn(3) == 0 {
				if got, want := inc.Makespan(), ev.ReferenceMakespan(cur); got != want {
					t.Fatalf("session step %d: makespan %v != reference %v", step, got, want)
				}
			}
		}
		if st := inc.Stats(); st.Evals == 0 || st.Rebuilds == 0 {
			t.Fatalf("session stats did not count: %+v", st)
		}
		inc.Close()
		// Pool hygiene: buffers returned by Close must not poison later
		// engine evaluations.
		if got, want := eng.Makespan(cur), ev.ReferenceMakespan(cur); got != want {
			t.Fatalf("post-Close engine %v != reference %v", got, want)
		}
	})
}
