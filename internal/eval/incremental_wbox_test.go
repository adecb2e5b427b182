package eval

// White-box differential probes of the incremental kernel internals on
// adversarial random instances (duplicate-free random DAGs rather than
// the generator's SP graphs — the kernel must be exact on any DAG):
// residual and preLB soundness against exact per-order makespans, and
// the session replay (makespanInc) against full simulation, with every
// recording the session's commit folds checked against a fresh one.
// Every probe runs on each of slotPlatforms.

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/graph"
	"spmap/internal/platform"
)

// slotPlatforms returns the probes' platforms: the reference platform,
// whose 4-slot CPU is its only multi-slot device, and a variant with a
// 3-slot CPU, a 2-slot GPU and the spatial FPGA, on which two devices
// keep sorted slot segments and slots of both can tie.
func slotPlatforms() []*platform.Platform {
	multi := platform.Reference()
	multi.Devices[0].Slots = 3
	multi.Devices[1].Slots = 2
	return []*platform.Platform{platform.Reference(), multi}
}

// SlotPlatforms exports slotPlatforms to the external fuzz tests.
var SlotPlatforms = slotPlatforms

// wantUnder applies the cutoff contract to a candidate whose exact
// makespan is want: what every evaluation entry point must return for it
// under cutoff.
func wantUnder(want, cutoff float64) float64 {
	if want == Infeasible || want <= cutoff {
		return want
	}
	return rejected(cutoff)
}

// WantUnder exports wantUnder to the external tests.
var WantUnder = wantUnder

// wboxInstance builds a random DAG, kernel, base mapping and recorded
// prefix on platform p for the probes.
func wboxInstance(rng *rand.Rand, p *platform.Platform, nMin, nSpan int) (k *kernel, st *simState, pre *batchPrefix, base []int, n, nd int) {
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

// TestResidualSound pins the per-candidate residual's obligations on
// recorded random mappings: in every order, each task's recorded finish
// plus its residual, and the critical path, deflated by loadSlack, stay
// at or below the order's makespan. The critical path must also be
// tight (within 1e-6 relative) on at least a quarter of the orders, so
// the probe keeps testing where only loadSlack keeps the bound sound.
func TestResidualSound(t *testing.T) {
	orders, tight := 0, 0
	for pi, p := range slotPlatforms() {
		for trial := 0; trial < 3000; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			k, st, pre, base, n, _ := wboxInstance(rng, p, 3, 18)
			cp := k.residual(st, base)
			for o := 0; o < k.numOrders; o++ {
				ms := pre.sufMax[o*(n+1)]
				if cp*loadSlack > ms {
					t.Fatalf("platform %d trial %d order %d: critical path %.17g > makespan %.17g\nbase=%v",
						pi, trial, o, cp, ms, base)
				}
				for v := 0; v < n; v++ {
					if x := (pre.finish[o*n+v] + st.res[v]) * loadSlack; x > ms {
						t.Fatalf("platform %d trial %d order %d task %d: finish+residual %.17g > makespan %.17g\nbase=%v",
							pi, trial, o, v, x, ms, base)
					}
				}
				orders++
				if ms-cp <= 1e-6*ms {
					tight++
				}
			}
		}
	}
	if 4*tight < orders {
		t.Fatalf("critical path tight on only %d of %d orders", tight, orders)
	}
	t.Logf("critical path tight on %d of %d orders", tight, orders)
}

// TestPreLBSoundness pins the pre-replay lower bound's one obligation:
// it never exceeds the exact per-order makespan of the patched
// candidate, given the candidate's residual and patch marks.
func TestPreLBSoundness(t *testing.T) {
	for pi, p := range slotPlatforms() {
		for trial := 0; trial < 3000; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			k, st, pre, base, n, nd := wboxInstance(rng, p, 3, 18)
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
			k.residual(st, m)
			st.patchEpoch++
			for _, v := range patch {
				st.patchMark[v] = st.patchEpoch
			}
			for o := 0; o < k.numOrders; o++ {
				lb := k.preLB(st, m, o, patch, pre)
				exact := k.simOrder(st2, m, o, math.Inf(1))
				if lb > exact {
					t.Fatalf("platform %d trial %d order %d: preLB %.17g > exact %.17g\nn=%d base=%v m=%v patch=%v",
						pi, trial, o, lb, exact, n, base, m, patch)
				}
			}
		}
	}
}

// TestSessionReplayExact drives Incremental's Evaluate/Apply loop at the
// kernel layer on random move sequences: each Evaluate (makespanInc)
// must return, bit for bit, what the cutoff contract makes of a full
// fresh simulation, and after every commit — the fold Incremental.Apply
// runs — every order must hold exactly the recording a fresh
// buildPrefix of the new base writes (rebaseOrder's promise).
// Re-committing a just-committed move moves no task and must leave the
// recording bit-for-bit unchanged.
func TestSessionReplayExact(t *testing.T) {
	commits, noops := 0, 0
	for pi, p := range slotPlatforms() {
		for trial := 0; trial < 1000; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			k, st, pre, base, n, nd := wboxInstance(rng, p, 3, 24)
			st2 := k.newState()
			fresh, before := k.newPrefix(), k.newPrefix()
			for step := 0; step < 30; step++ {
				np := 1 + rng.Intn(3)
				if np > n {
					np = n
				}
				var patch []graph.NodeID
				seen := map[int]bool{}
				dev := rng.Intn(nd)
				m := append([]int(nil), base...)
				for len(patch) < np {
					v := rng.Intn(n)
					if seen[v] {
						continue
					}
					seen[v] = true
					patch = append(patch, graph.NodeID(v))
					m[v] = dev
				}
				want := k.makespan(st2, m, math.Inf(1))
				cutoff := math.Inf(1)
				if rng.Intn(2) == 0 && !math.IsInf(want, 1) && want > 0 {
					cutoff = want * (0.8 + 0.4*rng.Float64())
				}
				got := k.makespanInc(st, m, patch, pre, cutoff, rng.Intn(2) == 0)
				if w := wantUnder(want, cutoff); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("platform %d trial %d step %d: eval %.17g want %.17g (exact %.17g, cutoff %.17g)\nn=%d base=%v patch=%v",
						pi, trial, step, got, w, want, cutoff, n, base, patch)
				}
				if rng.Intn(2) == 0 {
					k.commit(st, base, patch, dev, pre)
					commits++
					checkFreshRecording(t, k, st2, base, pre, fresh)
					if rng.Intn(4) == 0 {
						copyPrefix(before, pre)
						k.commit(st, base, patch, dev, pre)
						noops++
						comparePrefix(t, "no-op commit", k, pre, before)
					}
				}
			}
		}
	}
	if commits == 0 || noops == 0 {
		t.Fatalf("%d commits, %d no-op commits: the recording checks never ran", commits, noops)
	}
	t.Logf("%d commits, %d no-op commits checked", commits, noops)
}

// checkFreshRecording asserts that pre is bit-identical to a fresh
// buildPrefix of base, row by row, and that every device's slot segment
// of every checkpoint is ascending.
func checkFreshRecording(t *testing.T, k *kernel, st *simState, base []int, pre, fresh *batchPrefix) {
	t.Helper()
	k.buildPrefix(st, base, fresh)
	comparePrefix(t, "folded", k, pre, fresh)
	n, ns, nd := k.n, k.numSlots, k.nd
	for o := 0; o < k.numOrders; o++ {
		for i := 0; i < n; i++ {
			row := pre.freeCkpt[(o*n+i)*ns : (o*n+i+1)*ns]
			for d := 0; d < nd; d++ {
				for s := k.slotStart[d] + 1; s < k.slotStart[d+1]; s++ {
					if row[s-1] > row[s] {
						t.Fatalf("order %d position %d: device %d slots %v not ascending",
							o, i, d, row[k.slotStart[d]:k.slotStart[d+1]])
					}
				}
			}
		}
	}
}

// comparePrefix asserts that got and want are bit-identical recordings:
// the base row, and every order's checkpoints, task times and suffix
// maxima.
func comparePrefix(t *testing.T, what string, k *kernel, got, want *batchPrefix) {
	t.Helper()
	for v := range got.baseM {
		if got.baseM[v] != want.baseM[v] {
			t.Fatalf("%s base row %v != %v", what, got.baseM, want.baseM)
		}
	}
	n, ns := k.n, k.numSlots
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for o := 0; o < k.numOrders; o++ {
		rows := []struct {
			name      string
			got, want []float64
		}{
			{"freeCkpt", got.freeCkpt[o*n*ns : (o+1)*n*ns], want.freeCkpt[o*n*ns : (o+1)*n*ns]},
			{"msCkpt", got.msCkpt[o*n : (o+1)*n], want.msCkpt[o*n : (o+1)*n]},
			{"start", got.start[o*n : (o+1)*n], want.start[o*n : (o+1)*n]},
			{"finish", got.finish[o*n : (o+1)*n], want.finish[o*n : (o+1)*n]},
			{"sufMax", got.sufMax[o*(n+1) : (o+1)*(n+1)], want.sufMax[o*(n+1) : (o+1)*(n+1)]},
		}
		for _, r := range rows {
			if !same(r.got, r.want) {
				t.Fatalf("order %d: %s %s %v != %v", o, what, r.name, r.got, r.want)
			}
		}
	}
}

// copyPrefix copies every array of src into dst (same kernel).
func copyPrefix(dst, src *batchPrefix) {
	copy(dst.start, src.start)
	copy(dst.finish, src.finish)
	copy(dst.freeCkpt, src.freeCkpt)
	copy(dst.msCkpt, src.msCkpt)
	copy(dst.sufMax, src.sufMax)
	copy(dst.baseM, src.baseM)
}
