package decomp

import (
	"fmt"
	"math/rand"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/wf"
)

// TestLookAheadSessionMatchesReference pins the GammaThreshold/FirstFit
// look-ahead loop, which evaluates on an incremental engine session
// under the default objective, against the same loop driven by the
// straightforward reference simulation (Objective: ReferenceMakespan):
// the mapping and every Stats field, evaluation count included, must
// be identical. SP, almost-SP and workflow graphs cover the single-node
// and series-parallel subgraph sets with single- and multi-task moves.
func TestLookAheadSessionMatchesReference(t *testing.T) {
	p := platform.Reference()
	type instance struct {
		name string
		g    *graph.DAG
	}
	var instances []instance
	fams := wf.Families()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		fam := fams[(2*int(seed)+1)%len(fams)]
		instances = append(instances,
			instance{fmt.Sprintf("sp-%d", seed), gen.SeriesParallel(rng, 40, gen.DefaultAttr())},
			instance{fmt.Sprintf("almost-sp-%d", seed), gen.AlmostSeriesParallel(rng, 40, 10, gen.DefaultAttr())},
			instance{fmt.Sprintf("%v-%d", fam, seed), wf.Generate(fam, 2, rng)})
	}
	heuristics := []struct {
		h     Heuristic
		gamma float64
	}{{FirstFit, 0}, {GammaThreshold, 2}}
	for _, in := range instances {
		ev := model.NewEvaluator(in.g, p).WithSchedules(20, 7)
		for _, strat := range []Strategy{SingleNode, SeriesParallel} {
			for _, hc := range heuristics {
				opt := Options{Strategy: strat, Heuristic: hc.h, Gamma: hc.gamma}
				got, gotSt, err := MapWithEvaluator(ev, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.Objective = ev.ReferenceMakespan
				want, wantSt, err := MapWithEvaluator(ev, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) || gotSt != wantSt {
					t.Fatalf("%s %v/%v: session loop diverged from the reference\n got  %v %+v\n want %v %+v",
						in.name, strat, hc.h, got, gotSt, want, wantSt)
				}
			}
		}
	}
}
