package bounds

// An exhaustive-optimum oracle for small instances. The soundness
// contract is that every bound stays at or below the makespan of EVERY
// feasible mapping, i.e. at or below the optimum; checking it only
// against the mappings heuristics happen to find would pass an unsound
// bound that lands between the optimum and those makespans.

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

// maxOracleTasks is the largest instance the fuzzer enumerates: 3^8 =
// 6,561 mappings on the 3-device reference platform.
const maxOracleTasks = 8

// optimum returns the least makespan over all m^n mappings of ev's
// instance and the first mapping attaining it (+Inf and nil when none
// is feasible). It scores every mapping through one engine with the
// running minimum as the cutoff, so a mapping counts only when its value
// is strictly below the incumbent (a rejection is
// math.Nextafter(best, +Inf)), and re-checks the argmin against
// ReferenceMakespan.
func optimum(t testing.TB, ev *model.Evaluator) (float64, mapping.Mapping) {
	t.Helper()
	eng := ev.Engine()
	n, nd := ev.G.NumTasks(), ev.P.NumDevices()
	m := make(mapping.Mapping, n)
	best, arg := math.Inf(1), mapping.Mapping(nil)
	for {
		if v := eng.MakespanCutoff(m, best); v < best && v != model.Infeasible {
			best, arg = v, m.Clone()
		}
		// Advance m like an odometer over base-nd digits.
		i := 0
		for i < n && m[i] == nd-1 {
			m[i] = 0
			i++
		}
		if i == n {
			break
		}
		m[i]++
	}
	if arg != nil {
		if ref := ev.ReferenceMakespan(arg); ref != best {
			t.Fatalf("enumerated optimum %v of %v != its reference makespan %v", best, arg, ref)
		}
	}
	return best, arg
}

// TestOptimumMatchesReference pins the oracle itself on tiny instances:
// its optimum must equal the minimum of ReferenceMakespan over every
// mapping, enumerated without any cutoff.
func TestOptimumMatchesReference(t *testing.T) {
	p := platform.Reference()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.AlmostSeriesParallel(rng, 6, 2, gen.DefaultAttr())
		ev := model.NewEvaluator(g, p).WithSchedules(4, seed)
		got, _ := optimum(t, ev)
		want := math.Inf(1)
		n, nd := g.NumTasks(), p.NumDevices()
		m := make(mapping.Mapping, n)
		for code := 0; code < int(math.Pow(float64(nd), float64(n))); code++ {
			for v, c := 0, code; v < n; v, c = v+1, c/nd {
				m[v] = c % nd
			}
			if ms := ev.ReferenceMakespan(m); ms != model.Infeasible && ms < want {
				want = ms
			}
		}
		if got != want {
			t.Fatalf("seed %d: oracle optimum %v != exhaustive reference minimum %v", seed, got, want)
		}
	}
}

// TestBoundSlackToOptimum checks every bound against the enumerated
// optimum of a few generated SP and almost-SP graphs at n = 8 and 10,
// and logs each bound's slack (optimum - bound) / optimum: how much of a
// certified gap is bound looseness rather than mapper suboptimality.
func TestBoundSlackToOptimum(t *testing.T) {
	p := platform.Reference()
	for _, n := range []int{8, 10} {
		for seed := int64(1); seed <= 2; seed++ {
			for _, kind := range []string{"sp", "asp"} {
				rng := rand.New(rand.NewSource(seed))
				var g *graph.DAG
				if kind == "sp" {
					g = gen.SeriesParallel(rng, n, gen.DefaultAttr())
				} else {
					g = gen.AlmostSeriesParallel(rng, n, n/2, gen.DefaultAttr())
				}
				ev := model.NewEvaluator(g, p).WithSchedules(10, seed)
				opt, arg := optimum(t, ev)
				if arg == nil {
					t.Fatalf("%s n=%d seed %d: no feasible mapping", kind, n, seed)
				}
				for _, b := range allMethods() {
					v := b.Bound(ev)
					if v > opt*(1+1e-9)+1e-9 {
						t.Errorf("%s n=%d seed %d %s: bound %v exceeds the optimum %v (mapping %v)",
							kind, n, seed, b.Name(), v, opt, arg)
					}
					t.Logf("%-3s n=%-2d seed %d %-14s bound %.6g optimum %.6g slack %.3f",
						kind, n, seed, b.Name(), v, opt, (opt-v)/opt)
				}
			}
		}
	}
}
