package eval

// White-box differential probes of the incremental kernel internals on
// adversarial random instances (duplicate-free random DAGs rather than
// the generator's SP graphs — the kernel must be exact on any DAG):
// preLB soundness against exact per-order makespans, and the session
// replay (makespanInc with pending lazy-apply lists) against full
// simulation, with a tiny fold capacity so the applyOrder rebase path
// runs constantly instead of once per pendCap=24 accepted moves.

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/graph"
	"spmap/internal/platform"
)

// wboxInstance builds a random DAG, kernel, base mapping and recorded
// prefix for the probes.
func wboxInstance(rng *rand.Rand, nMin, nSpan int) (k *kernel, st *simState, pre *batchPrefix, base []int, n, nd int) {
	n = nMin + rng.Intn(nSpan)
	g := graph.New(n, 0)
	for v := 0; v < n; v++ {
		g.AddTask(graph.Task{
			Complexity:        float64(1 + rng.Intn(9)),
			Parallelizability: float64(rng.Intn(5)) / 4,
			Streamability:     float64(rng.Intn(16)),
			Area:              float64(rng.Intn(40)),
			SourceBytes:       float64(rng.Intn(200)) * 1e6,
		})
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u < v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+rng.Intn(10))*1e6)
		}
	}
	p := platform.Reference()
	nd = len(p.Devices)
	orders := [][]graph.NodeID{g.BFSOrder(), g.RandomTopoOrder(rng.Intn)}
	k = compile(g, p, orders)
	st = k.newState()
	pre = k.newPrefix()
	base = make([]int, n)
	for v := range base {
		base[v] = rng.Intn(nd)
	}
	k.buildPrefix(st, base, pre)
	return k, st, pre, base, n, nd
}

// TestPreLBSoundness pins the pre-replay lower bound's one obligation:
// it never exceeds the exact per-order makespan of the patched
// candidate — neither unbounded nor with a finite bound argument (which
// only licenses early exits, never overshoot).
func TestPreLBSoundness(t *testing.T) {
	for trial := 0; trial < 3000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		k, st, pre, base, n, nd := wboxInstance(rng, 3, 18)
		np := 1 + rng.Intn(6)
		if np > n {
			np = n
		}
		seen := map[int]bool{}
		var patch []graph.NodeID
		m := append([]int(nil), base...)
		for len(patch) < np {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			patch = append(patch, graph.NodeID(v))
			m[v] = rng.Intn(nd)
		}
		st2 := k.newState()
		for o := 0; o < k.numOrders; o++ {
			lb := k.preLB(st, m, o, patch, pre, math.Inf(1))
			exact, _ := k.simOrder(st2, m, o, 1e308, nil)
			lb2 := k.preLB(st, m, o, patch, pre, exact*(0.2+1.6*rng.Float64()))
			if lb > exact || lb2 > exact {
				t.Fatalf("trial %d order %d: preLB %.17g / bounded %.17g > exact %.17g\nn=%d base=%v m=%v patch=%v",
					trial, o, lb, lb2, exact, n, base, m, patch)
			}
		}
	}
}

// TestSessionReplayExact mirrors Incremental's Evaluate/Apply loop at
// the kernel layer with a fold capacity of 7 (versus pendCap's 24), so
// random move sequences constantly exercise the applyOrder windowed
// rebase, the composed-patch stale resume and the fold-before-update
// ordering — each Evaluate must satisfy the cutoff contract against a
// full fresh simulation.
func TestSessionReplayExact(t *testing.T) {
	const foldCap = 7
	for trial := 0; trial < 1000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		k, st, pre, base, n, nd := wboxInstance(rng, 3, 24)
		pend := make([][]graph.NodeID, k.numOrders)
		st2 := k.newState()
		for step := 0; step < 30; step++ {
			np := 1 + rng.Intn(3)
			if np > n {
				np = n
			}
			var patch []graph.NodeID
			dev := rng.Intn(nd)
			m := append([]int(nil), base...)
			for len(patch) < np {
				v := rng.Intn(n)
				if inPatch(patch, v) {
					continue
				}
				patch = append(patch, graph.NodeID(v))
				m[v] = dev
			}
			want := k.makespan(st2, m, math.Inf(1))
			cutoff := math.Inf(1)
			if rng.Intn(2) == 0 && !math.IsInf(want, 1) && want > 0 {
				cutoff = want * (0.8 + 0.4*rng.Float64())
			}
			got := k.makespanInc(st, m, patch, pre, cutoff, rng.Intn(2) == 0, base, pend)
			switch {
			case got <= cutoff || math.IsInf(cutoff, 1):
				if got != want {
					t.Fatalf("trial %d step %d: eval %.17g want %.17g cutoff %.17g\nn=%d base=%v patch=%v pend=%v",
						trial, step, got, want, cutoff, n, base, patch, pend)
				}
			case got > want:
				t.Fatalf("trial %d step %d: abort %.17g exceeds true %.17g\nn=%d base=%v patch=%v",
					trial, step, got, want, n, base, patch)
			case want <= cutoff:
				t.Fatalf("trial %d step %d: false reject %.17g of true %.17g <= cutoff %.17g\nn=%d base=%v patch=%v",
					trial, step, got, want, cutoff, n, base, patch)
			}
			if rng.Intn(2) == 0 {
				// Commit the move the way Incremental.Apply does: fold
				// overflowing orders against the pre-patch base, then
				// update the base and append the patch as pending.
				for o := range pend {
					if pd := pend[o]; len(pd)+len(patch) > foldCap {
						k.applyOrder(st, base, o, pd, pre)
						pend[o] = pd[:0]
					}
				}
				for _, v := range patch {
					base[v] = dev
				}
				for o := range pend {
					pd := pend[o]
					for _, pv := range patch {
						if !inPatch(pd, int(pv)) {
							pd = append(pd, pv)
						}
					}
					pend[o] = pd
				}
			}
		}
	}
}
