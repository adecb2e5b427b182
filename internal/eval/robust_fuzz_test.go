package eval

// Differential fuzzing of the robust objective: for a fuzzer-chosen
// DAG, noise model, sample count and tail, the batched Monte-Carlo path
// (including the worker fan-outs and the single-op sample fan-out) must
// reproduce, bit for bit, the serial reference loop over per-sample
// perturbed kernels — for feasible and infeasible candidates, and
// regardless of the caller's cutoff (robust values are always exact).

import (
	"math"
	"testing"

	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

// robustFuzzInstance decodes (graph, mapping, noise, samples, tail)
// from the fuzz payload. Areas large enough to overcommit the reference
// FPGA arise from the byte stream, so infeasible candidates are fuzzed
// too.
func robustFuzzInstance(data []byte, nd int) (g *graph.DAG, m mapping.Mapping, nm NoiseModel, samples int, tail float64, seed int64) {
	next := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	n := 2 + int(next(0))%10 // 2..11 tasks
	g = graph.New(n, 0)
	for v := 0; v < n; v++ {
		b := next(1 + v)
		g.AddTask(graph.Task{
			Complexity:        float64(1 + b%9),
			Parallelizability: float64(b%5) / 4,
			Streamability:     float64(b % 16),
			Area:              float64(b%4) * 50, // up to 150 > FPGA capacity 120
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
	m = make(mapping.Mapping, n)
	off := n + 2 + 2*ne
	for v := 0; v < n; v++ {
		m[v] = int(next(off+v)) % nd
	}
	nb := func(i int) float64 { return float64(next(off+n+i)%16) / 20 } // 0..0.75
	nm = NoiseModel{
		Kind:          NoiseKind(int(next(off+n)) % 2),
		ExecSigma:     nb(1),
		DeviceSigma:   nb(2),
		TransferSigma: nb(3),
		Seed:          int64(next(off + n + 4)),
	}
	samples = 1 + int(next(off+n+5))%4
	tail = 0.5 + float64(next(off+n+6)%5)/10 // 0.5..0.9
	seed = int64(next(off + n + 7))
	return g, m, nm, samples, tail, seed
}

func FuzzRobustMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{9, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2})
	f.Add([]byte{3, 0, 150, 0, 2, 0, 1, 1, 2, 9, 9, 31, 14, 250})
	p := platform.Reference()
	nd := p.NumDevices()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m, nm, samples, tail, seed := robustFuzzInstance(data, nd)
		if err := g.Validate(); err != nil {
			t.Skip() // duplicate edges from the byte stream
		}
		eng := NewEngineSchedules(g, p, int(seed%4), seed, Options{Workers: 4})

		// Base plus every single-task move: patched ops drive the same
		// prefix-resume machinery the optimizers use.
		ops := []Op{{Base: m}}
		for v := 0; v < g.NumTasks(); v++ {
			d := (m[v] + 1 + v) % nd
			ops = append(ops, Op{Base: m, Patch: []graph.NodeID{graph.NodeID(v)}, Device: d})
		}
		want := robustReference(eng, nm, samples, tail, ops)

		ro, err := NewRobustObjective(nm, samples, tail)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			e := eng.WithWorkers(workers)
			for _, cutoff := range []float64{math.Inf(1), 1e-9} {
				out := make([]float64, len(ops))
				ro.Batch(e, ops, cutoff, out)
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d cutoff=%v op %d: %v (%x) != reference %v (%x)",
							workers, cutoff, i, out[i], math.Float64bits(out[i]),
							want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
		// Single-op batches exercise the sample fan-out path.
		single := make([]float64, 1)
		ro.Batch(eng, ops[:1], math.Inf(1), single)
		if single[0] != want[0] {
			t.Fatalf("single-op: %v != batch %v", single[0], want[0])
		}
	})
}
