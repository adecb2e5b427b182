package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"spmap/internal/gen"
	"spmap/internal/mapping"
	"spmap/internal/platform"
	"spmap/internal/portfolio"
)

// portfolio-race races the default portfolio members on mid-size SP
// graphs under a shared budget small enough that every instance repeats
// many times per run. Incremental sessions, GA batches, warm reads of the
// shared evaluation cache, coordinator rendezvous and the up-front bound
// certificate carry the work; the service does none.
const (
	raceSchedules = 20
	raceBudget    = 2000
	// raceTailQ: a 50-second run makes about 570 ops, so p95 has about
	// 28 beyond it (p99 would have 5).
	raceTailQ = 0.95
	// raceInstances is odd so the p50 and p95 ranks fall inside a
	// cluster, 7.5 and 14.25 clusters up (see spffInstances).
	raceInstances = 15
)

func raceCorpus() []instance {
	rng := rand.New(rand.NewSource(instanceSeed))
	p := platform.Reference()
	ins := make([]instance, raceInstances)
	for i := range ins {
		n := 40 + rng.Intn(51)
		ins[i] = instance{g: gen.SeriesParallel(rng, n, gen.DefaultAttr()), p: p, schedules: raceSchedules}
		ins[i].seed, ins[i].algoSeed = rng.Int63(), rng.Int63()
	}
	return ins
}

// memberMetric names a member's per-layer evaluation count.
func memberMetric(k portfolio.MemberKind) string {
	name := strings.NewReplacer("+", "_").Replace(strings.ToLower(k.String()))
	return "member." + name + ".evals"
}

// gateRace adds the certificate checks to the mapping gate.
func gateRace(st *mapState, i int, m mapping.Mapping, ps portfolio.Stats) error {
	if err := gateMapping(st.evs[i], m, ps.Makespan, st.baseline[i]); err != nil {
		return err
	}
	if ps.LowerBound > ps.Makespan {
		return fmt.Errorf("lower bound %v above the makespan %v", ps.LowerBound, ps.Makespan)
	}
	if !(ps.Gap >= 0 && ps.Gap <= 1) {
		return fmt.Errorf("gap %v outside [0, 1]", ps.Gap)
	}
	return nil
}

func raceOptions(in *instance, budget int) portfolio.Options {
	return portfolio.Options{Budget: budget, Seed: in.algoSeed, Workers: 1}
}

func runRace(c *config, r *report) error {
	st, err := setUp(r, func() (*mapState, phases, error) {
		var ph phases
		t0 := time.Now()
		ins := raceCorpus()
		ph.gen = time.Since(t0)
		s := buildMapState(ins)
		// Warm-up pass: one untimed op on every instance, as on
		// paper-spff. A race on a tenth of the budget made set-up 0.4 s
		// long, and its median moved with the speed of the machine at
		// the moment: 0.39-0.63 s over five runs whose ops agreed within
		// 4%.
		t1 := time.Now()
		for i := range ins {
			if _, _, err := portfolio.MapWithEvaluator(s.evs[i], raceOptions(&ins[i], raceBudget)); err != nil {
				return nil, ph, err
			}
		}
		ph.warm = time.Since(t1)
		return s, ph, nil
	})
	if err != nil {
		return err
	}

	n := len(st.ins)
	results := make([]mapping.Mapping, n)
	seen := make([]bool, n)
	first := make([]portfolio.Stats, n) // each instance's first result, passed or not
	var raceMS, evals, rounds, moved, winner, hits, misses []float64
	members := map[string][]float64{}
	res, tr, err := corpusLoop(c, r, n, c.opsFor(raceTailQ), func(i, opID int, tr *tracer) (time.Duration, error) {
		in := &st.ins[i]
		t0 := time.Now()
		m, ps, err := portfolio.MapWithEvaluator(st.evs[i], raceOptions(in, raceBudget))
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		hits = append(hits, float64(ps.Cache.Hits))
		misses = append(misses, float64(ps.Cache.Misses))
		if tr != nil {
			tr.add("portfolio.race", t0, t1, -1, opID)
			raceMS = append(raceMS, msOf(t1.Sub(t0)))
			evals = append(evals, float64(ps.Evaluations))
			rounds = append(rounds, float64(ps.Rounds))
			moved = append(moved, float64(ps.BudgetMoved))
			w := 0.0
			if ps.Best >= 0 {
				w = ratio(float64(ps.Members[ps.Best].Evaluations), float64(ps.Evaluations))
			}
			winner = append(winner, w)
			for _, ms := range ps.Members {
				members[memberMetric(ms.Kind)] = append(members[memberMetric(ms.Kind)], float64(ms.Evaluations))
			}
		}
		if !seen[i] {
			seen[i], first[i] = true, ps
		}
		err = gateRace(st, i, m, ps)
		if err == nil && results[i] == nil {
			results[i] = m
		} else if err == nil && (!m.Equal(results[i]) || math.Float64bits(ps.Makespan) != math.Float64bits(first[i].Makespan)) {
			err = errNondeterministic
		}
		r.check(err)
		return t1.Sub(t0), nil
	})
	if err != nil {
		return err
	}
	var improvement, gap []float64
	for i := range first {
		improvement = append(improvement, (st.baseline[i]-first[i].Makespan)/st.baseline[i])
		gap = append(gap, first[i].Gap)
	}
	r.set("improvement", mean(improvement))
	r.set("gap", mean(gap))
	r.lat, r.tailQ = res.all, raceTailQ
	if c.trace {
		res.overhead(r)
		r.set("cache.hits", mean(hits))
		r.set("cache.misses", mean(misses))
		r.set("cache.hit_rate", ratio(mean(hits), mean(hits)+mean(misses)))
		r.set("portfolio.race_ms", mean(raceMS))
		r.set("portfolio.evals", mean(evals))
		r.set("portfolio.rounds", mean(rounds))
		r.set("portfolio.budget_moved", mean(moved))
		r.set("portfolio.winner_evals_share", mean(winner))
		for name, v := range members {
			r.set(name, mean(v))
		}
		setBases(st.ins, results)
		return traceProbes(c, r, tr, st.ins, "portfolio-race")
	}
	return nil
}
