package localsearch_test

// The package is external (localsearch_test) so it may import model and
// the other mappers for refinement and comparison tests.

import (
	"fmt"
	"math/rand"
	"testing"

	"spmap/internal/coord"
	"spmap/internal/gen"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

func testEvaluator(t *testing.T, seed int64, n int) *model.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
	return model.NewEvaluator(g, platform.Reference()).WithSchedules(10, seed)
}

func TestNeverWorseThanBaseline(t *testing.T) {
	for _, alg := range []localsearch.Algorithm{localsearch.Anneal, localsearch.HillClimb} {
		for seed := int64(1); seed <= 3; seed++ {
			ev := testEvaluator(t, seed, 40)
			base := ev.Makespan(mapping.Baseline(ev.G, ev.P))
			m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
				Algorithm: alg, Seed: seed, Budget: 2000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(ev.G, ev.P); err != nil {
				t.Fatalf("%v seed %d: %v", alg, seed, err)
			}
			got := ev.Makespan(m)
			if got != st.Makespan {
				t.Fatalf("%v seed %d: reported makespan %v != re-evaluated %v", alg, seed, st.Makespan, got)
			}
			if got > base {
				t.Fatalf("%v seed %d: result %v worse than baseline %v", alg, seed, got, base)
			}
			if st.StartMakespan != base {
				t.Fatalf("%v seed %d: start makespan %v != baseline %v", alg, seed, st.StartMakespan, base)
			}
			if st.Evaluations > 2000 {
				t.Fatalf("%v seed %d: budget exceeded (%d evaluations)", alg, seed, st.Evaluations)
			}
			// A 40-task graph with 2000 evaluations must find something.
			if got >= base && base > 0 {
				t.Fatalf("%v seed %d: no improvement found", alg, seed)
			}
		}
	}
}

func TestRefineNeverWorseThanInput(t *testing.T) {
	for _, alg := range []localsearch.Algorithm{localsearch.Anneal, localsearch.HillClimb} {
		ev := testEvaluator(t, 7, 50)
		start := heft.MapWithEvaluator(ev, heft.HEFT)
		startMS := ev.Makespan(start.Clone().Repair(ev.G, ev.P))
		m, st, err := localsearch.Refine(ev, start, localsearch.Options{
			Algorithm: alg, Seed: 2, Budget: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.Makespan(m); got > startMS {
			t.Fatalf("%v: refined %v worse than input %v", alg, got, startMS)
		}
		if st.Makespan > st.StartMakespan {
			t.Fatalf("%v: stats report worsening: %+v", alg, st)
		}
		// The input mapping must not be mutated.
		if !start.Equal(heft.MapWithEvaluator(ev, heft.HEFT)) {
			t.Fatalf("%v: Refine mutated its input mapping", alg)
		}
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, alg := range []localsearch.Algorithm{localsearch.Anneal, localsearch.HillClimb} {
		ev := testEvaluator(t, 11, 45)
		type run struct {
			m  mapping.Mapping
			st localsearch.Stats
		}
		var runs []run
		for _, workers := range []int{1, 1, 4, 4} {
			m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
				Algorithm: alg, Seed: 5, Workers: workers, Budget: 1200,
			})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{m, st})
		}
		for i := 1; i < len(runs); i++ {
			if !runs[i].m.Equal(runs[0].m) {
				t.Fatalf("%v: run %d mapping differs from run 0", alg, i)
			}
			if runs[i].st != runs[0].st {
				t.Fatalf("%v: run %d stats %+v differ from run 0 %+v", alg, i, runs[i].st, runs[0].st)
			}
		}
	}
}

func TestSeedChangesSearch(t *testing.T) {
	ev := testEvaluator(t, 13, 45)
	m1, _, err := localsearch.MapWithEvaluator(ev, localsearch.Options{Seed: 1, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := localsearch.MapWithEvaluator(ev, localsearch.Options{Seed: 99, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds explore different trajectories; identical results
	// would suggest the seed is ignored. (Both must still be feasible
	// improvements, checked elsewhere.)
	if m1.Equal(m2) {
		t.Log("warning: seeds 1 and 99 found the same mapping (possible but unlikely)")
	}
}

func TestInvalidInitRejected(t *testing.T) {
	ev := testEvaluator(t, 17, 20)
	bad := make(mapping.Mapping, 3) // wrong length
	if _, _, err := localsearch.Refine(ev, bad, localsearch.Options{}); err == nil {
		t.Fatal("short init mapping accepted")
	}
	bad = mapping.New(ev.G.NumTasks(), 99) // invalid device
	if _, _, err := localsearch.Refine(ev, bad, localsearch.Options{}); err == nil {
		t.Fatal("invalid device in init mapping accepted")
	}
}

func TestDegenerateInstances(t *testing.T) {
	// Single-device platform: nothing to search, baseline returned.
	ev := model.NewEvaluator(testEvaluator(t, 19, 10).G, platform.CPUOnly())
	m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(mapping.Baseline(ev.G, ev.P)) {
		t.Fatal("single-device search changed the mapping")
	}
	if st.Makespan != st.StartMakespan {
		t.Fatalf("single-device search reports movement: %+v", st)
	}
}

func TestHillClimbBeatsAnnealOnTinyBudget(t *testing.T) {
	// Smoke check that both algorithms make progress and stats are
	// internally consistent on a mid-size instance.
	ev := testEvaluator(t, 23, 60)
	for _, alg := range []localsearch.Algorithm{localsearch.Anneal, localsearch.HillClimb} {
		m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
			Algorithm: alg, Seed: 3, Budget: 3000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Moves <= 0 {
			t.Fatalf("%v: no moves applied", alg)
		}
		if got := ev.Makespan(m); got != st.Makespan {
			t.Fatalf("%v: makespan mismatch %v != %v", alg, got, st.Makespan)
		}
	}
}

// TestSyncContract drives the coordination hook the portfolio runner
// installs, on both algorithms. Each case answers the first rendezvous
// with one directive and every later one with none: a better exact
// elite plus Stop is adopted without spending an evaluation and ends the
// run there, a negative budget delta ends the run below its original
// budget, and weighted mode ignores elites (their values are not
// comparable to its scalarized cost).
func TestSyncContract(t *testing.T) {
	ev := testEvaluator(t, 29, 40)
	const budget = 2000
	// The elite a longer-running member would forward: its value is the
	// exact makespan under the same engine.
	elite, est, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
		Algorithm: localsearch.HillClimb, Seed: 1, Budget: 5 * budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	eliteVal := est.Makespan
	cases := []struct {
		name     string
		weighted bool
		first    coord.SyncDirective
		check    func(t *testing.T, m mapping.Mapping, st localsearch.Stats, first coord.SyncInfo)
	}{
		{
			name:  "elite and stop",
			first: coord.SyncDirective{Elite: elite, EliteValue: eliteVal, Stop: true},
			check: func(t *testing.T, m mapping.Mapping, st localsearch.Stats, first coord.SyncInfo) {
				if eliteVal >= first.BestValue {
					t.Fatalf("premise: elite %v does not beat the best %v at the rendezvous", eliteVal, first.BestValue)
				}
				if st.Injected != 1 || !st.Stopped {
					t.Fatalf("injected %d, stopped %v: want 1, true", st.Injected, st.Stopped)
				}
				if st.Makespan != eliteVal || !m.Equal(elite) {
					t.Fatalf("result %v (makespan %v), want the elite %v (makespan %v)", m, st.Makespan, elite, eliteVal)
				}
				if st.Evaluations != first.Evaluations {
					t.Fatalf("%d evaluations, want the %d the hook saw: adoption must be free", st.Evaluations, first.Evaluations)
				}
			},
		},
		{
			name:  "negative budget delta",
			first: coord.SyncDirective{BudgetDelta: -budget / 2},
			check: func(t *testing.T, m mapping.Mapping, st localsearch.Stats, first coord.SyncInfo) {
				if st.Stopped || st.Injected != 0 {
					t.Fatalf("stopped %v, injected %d: want false, 0", st.Stopped, st.Injected)
				}
				if st.Evaluations > budget/2 || st.Evaluations <= first.Evaluations {
					t.Fatalf("%d evaluations, want in (%d, %d]", st.Evaluations, first.Evaluations, budget/2)
				}
			},
		},
		{
			name:     "weighted mode ignores the elite",
			weighted: true,
			first:    coord.SyncDirective{Elite: elite, EliteValue: 0},
			check: func(t *testing.T, m mapping.Mapping, st localsearch.Stats, first coord.SyncInfo) {
				if st.Injected != 0 || st.Stopped {
					t.Fatalf("injected %d, stopped %v: want 0, false", st.Injected, st.Stopped)
				}
			},
		},
	}
	for _, tc := range cases {
		for _, alg := range []localsearch.Algorithm{localsearch.Anneal, localsearch.HillClimb} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, alg), func(t *testing.T) {
				var seen []coord.SyncInfo
				opt := localsearch.Options{
					Algorithm: alg, Seed: 4, Budget: budget, SyncEvery: 50,
					Sync: func(info coord.SyncInfo) coord.SyncDirective {
						seen = append(seen, info)
						if len(seen) == 1 {
							return tc.first
						}
						return coord.SyncDirective{}
					},
				}
				if tc.weighted {
					opt.WTime, opt.WEnergy = 1, 1
				}
				m, st, err := localsearch.MapWithEvaluator(ev, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(seen) == 0 || st.Syncs != len(seen) {
					t.Fatalf("%d syncs counted, %d seen by the hook", st.Syncs, len(seen))
				}
				if seen[0].Budget != budget || seen[0].Evaluations < opt.SyncEvery {
					t.Fatalf("first rendezvous at %d of %d evaluations", seen[0].Evaluations, seen[0].Budget)
				}
				tc.check(t, m, st, seen[0])
			})
		}
	}
}
