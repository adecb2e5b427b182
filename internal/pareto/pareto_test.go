package pareto

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmap/internal/mapping"
)

// randomPoints draws n feasible points with objectives in [lo, hi) and
// tiny random mappings (so lexicographic tie-breaking is exercised).
func randomPoints(rng *rand.Rand, n int, lo, hi float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		m := mapping.Mapping{rng.Intn(3), rng.Intn(3)}
		pts[i] = NewPoint([]float64{
			lo + (hi-lo)*rng.Float64(),
			lo + (hi-lo)*rng.Float64(),
		}, m)
	}
	// Duplicate some points (and some objective vectors) on purpose. The
	// duplicate gets its own vector so the objective-splice below never
	// mutates two points through one shared slice.
	for i := 0; i+1 < n; i += 7 {
		pts[i+1] = NewPoint(append([]float64(nil), pts[i].Vec...), pts[i].Mapping)
	}
	for i := 0; i+3 < n; i += 11 {
		pts[i+3].Vec[0] = pts[i].Vec[0]
	}
	return pts
}

// frontString fingerprints an archive's contents exactly (objective bit
// patterns plus mappings).
func frontString(f Front) string {
	s := ""
	for _, p := range f {
		s += "("
		for _, d := range p.Mapping {
			s += string(rune('0' + d))
		}
		s += fmt.Sprintf(":%016x:%016x)", math.Float64bits(p.Makespan()), math.Float64bits(p.Energy()))
	}
	return s
}

// TestArchiveMutuallyNonDominated: archived points are mutually
// non-dominated in the true (not just box) sense, for ε = 0 and ε > 0.
func TestArchiveMutuallyNonDominated(t *testing.T) {
	for _, eps := range []float64{0, 0.05, 0.5} {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 50; trial++ {
			a := NewArchive(eps)
			for _, p := range randomPoints(rng, 60, 1, 4) {
				a.Add(p)
			}
			f := a.Front()
			if len(f) == 0 {
				t.Fatalf("eps=%g trial %d: empty archive", eps, trial)
			}
			for i := range f {
				for j := range f {
					if i != j && f[i].dominates(f[j]) {
						t.Fatalf("eps=%g trial %d: archived point %d dominates %d", eps, trial, i, j)
					}
				}
			}
			for i := 1; i < len(f); i++ {
				if f[i].Makespan() < f[i-1].Makespan() {
					t.Fatalf("eps=%g trial %d: front not sorted by makespan", eps, trial)
				}
			}
		}
	}
}

// TestArchiveEpsGridBound: with ε > 0 the archive never exceeds one
// point per makespan grid cell of the inserted range.
func TestArchiveEpsGridBound(t *testing.T) {
	const lo, hi = 1.0, 8.0
	for _, eps := range []float64{0.01, 0.1, 0.5, 2} {
		rng := rand.New(rand.NewSource(2))
		a := NewArchive(eps)
		for _, p := range randomPoints(rng, 500, lo, hi) {
			a.Add(p)
		}
		bound := int(math.Floor(hi/eps)-math.Floor(lo/eps)) + 1
		if a.Len() > bound {
			t.Fatalf("eps=%g: archive size %d exceeds grid bound %d", eps, a.Len(), bound)
		}
	}
}

// TestArchivePermutationInvariance: the final archive depends only on
// the set of inserted points, never on insertion order.
func TestArchivePermutationInvariance(t *testing.T) {
	for _, eps := range []float64{0, 0.07, 0.3} {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 30; trial++ {
			pts := randomPoints(rng, 40, 1, 3)
			ref := ""
			for perm := 0; perm < 6; perm++ {
				order := rng.Perm(len(pts))
				a := NewArchive(eps)
				for _, i := range order {
					a.Add(pts[i])
				}
				got := frontString(a.Front())
				if perm == 0 {
					ref = got
				} else if got != ref {
					t.Fatalf("eps=%g trial %d perm %d: archive depends on insertion order\n got %s\nwant %s",
						eps, trial, perm, got, ref)
				}
			}
		}
	}
}

// TestArchivePointsAreGenerators: every archived point is one of the
// inserted points verbatim (the archive never synthesizes box corners),
// so each front point trivially weakly dominates its generator; and for
// every rejected or evicted insert some archived point's box weakly
// dominates its box.
func TestArchivePointsAreGenerators(t *testing.T) {
	for _, eps := range []float64{0, 0.1} {
		rng := rand.New(rand.NewSource(4))
		pts := randomPoints(rng, 80, 1, 5)
		a := NewArchive(eps)
		for _, p := range pts {
			a.Add(p)
		}
		inserted := func(q Point) bool {
			for _, p := range pts {
				if p.Makespan() == q.Makespan() && p.Energy() == q.Energy() && p.Mapping.Equal(q.Mapping) {
					return true
				}
			}
			return false
		}
		for _, q := range a.Front() {
			if !inserted(q) {
				t.Fatalf("eps=%g: archive holds a point that was never inserted: %+v", eps, q)
			}
		}
		// Coverage: every inserted point's box is weakly dominated by some
		// archived point's box (the ε-dominance guarantee).
		for i, p := range pts {
			pm, pe := a.boxCoord(p.Vec[0]), a.boxCoord(p.Vec[1])
			covered := false
			for _, q := range a.Front() {
				qm, qe := a.boxCoord(q.Vec[0]), a.boxCoord(q.Vec[1])
				if qm <= pm && qe <= pe {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("eps=%g: inserted point %d not ε-covered by the archive", eps, i)
			}
		}
	}
}

// TestArchiveRejectsInfeasible: infeasible and non-finite points never
// enter the archive.
func TestArchiveRejectsInfeasible(t *testing.T) {
	a := NewArchive(0)
	m := mapping.Mapping{0}
	for _, p := range []Point{
		NewPoint([]float64{Infeasible, 1}, m),
		NewPoint([]float64{1, Infeasible}, m),
		NewPoint([]float64{math.NaN(), 1}, m),
		NewPoint([]float64{1, 1}, nil),
	} {
		if a.Add(p) {
			t.Fatalf("archived invalid point %+v", p)
		}
	}
	if a.Len() != 0 {
		t.Fatal("archive not empty")
	}
	if !a.Add(NewPoint([]float64{1, 1}, m)) {
		t.Fatal("feasible point rejected")
	}
}

// TestArchiveCloneSemantics: Add clones the mapping, so callers may
// reuse their buffer.
func TestArchiveCloneSemantics(t *testing.T) {
	a := NewArchive(0)
	m := mapping.Mapping{1, 2}
	a.Add(NewPoint([]float64{1, 1}, m))
	m[0] = 0
	if got := a.Front()[0].Mapping[0]; got != 1 {
		t.Fatalf("archive aliases the caller's mapping buffer (got %d)", got)
	}
}

func TestNonDominatedRanks(t *testing.T) {
	// Hand-built 2D layout: rank 0 = {0, 1}, rank 1 = {2}, rank 2 = {3};
	// index 4 is infeasible and must rank last.
	ms := []float64{1, 3, 2, 3, Infeasible}
	en := []float64{3, 1, 3, 3, Infeasible}
	rank := NonDominatedRanksVec([][]float64{ms, en})
	want := []int{0, 0, 1, 2, 3}
	for i := range want {
		if rank[i] != want[i] {
			t.Fatalf("rank = %v, want %v", rank, want)
		}
	}
}

// TestNonDominatedRanksProperties: rank 0 is exactly the non-dominated
// set, and every point of rank r > 0 is dominated by some point of rank
// r-1.
func TestNonDominatedRanksProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		pts := randomPoints(rng, 50, 1, 3)
		ms := make([]float64, len(pts))
		en := make([]float64, len(pts))
		for i, p := range pts {
			ms[i], en[i] = p.Makespan(), p.Energy()
		}
		rank := NonDominatedRanksVec([][]float64{ms, en})
		dom := func(i, j int) bool {
			return NewPoint([]float64{ms[i], en[i]}, nil).dominates(NewPoint([]float64{ms[j], en[j]}, nil))
		}
		for i := range pts {
			dominated := false
			byPrev := false
			for j := range pts {
				if i == j || !dom(j, i) {
					continue
				}
				dominated = true
				if rank[j] >= rank[i] {
					t.Fatalf("trial %d: %d (rank %d) dominated by %d (rank %d)", trial, i, rank[i], j, rank[j])
				}
				if rank[j] == rank[i]-1 {
					byPrev = true
				}
			}
			if (rank[i] == 0) != !dominated {
				t.Fatalf("trial %d: rank-0 membership wrong for %d", trial, i)
			}
			if rank[i] > 0 && !byPrev {
				t.Fatalf("trial %d: point %d of rank %d not dominated by rank %d", trial, i, rank[i], rank[i]-1)
			}
		}
	}
}

func TestCrowdingDistance(t *testing.T) {
	// Four points on a line: boundaries infinite, inner ones finite and
	// symmetric.
	ms := []float64{1, 2, 3, 4}
	en := []float64{4, 3, 2, 1}
	objs := [][]float64{ms, en}
	d := CrowdingDistanceVec(objs, []int{0, 1, 2, 3})
	if !math.IsInf(d[0], 1) || !math.IsInf(d[3], 1) {
		t.Fatalf("boundary distances not infinite: %v", d)
	}
	if math.Abs(d[1]-d[2]) > 1e-12 {
		t.Fatalf("symmetric interior points have unequal crowding: %v", d)
	}
	if d[1] <= 0 || math.IsInf(d[1], 1) {
		t.Fatalf("interior crowding out of range: %v", d)
	}
	// Tiny fronts: everything boundary.
	for _, fr := range [][]int{{0}, {0, 1}} {
		for _, v := range CrowdingDistanceVec(objs, fr) {
			if !math.IsInf(v, 1) {
				t.Fatalf("front %v: expected all-infinite crowding", fr)
			}
		}
	}
}

func TestHypervolume(t *testing.T) {
	f := Front{NewPoint([]float64{1, 3}, nil), NewPoint([]float64{2, 1}, nil)}
	// Reference (4, 4): point 1 contributes (4-1)*(4-3)=3, point 2
	// (4-2)*(3-1)=4.
	if got, want := f.Hypervolume(4, 4), 7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("hypervolume = %v, want %v", got, want)
	}
	if got := (Front{}).Hypervolume(4, 4); got != 0 {
		t.Fatalf("empty front hypervolume = %v", got)
	}
	// Points beyond the reference contribute nothing.
	g := Front{NewPoint([]float64{5, 0.5}, nil), NewPoint([]float64{1, 3}, nil)}
	if got := g.Hypervolume(4, 4); got != 3 {
		t.Fatalf("clipped hypervolume = %v, want 3", got)
	}
}

func TestFrontExtremes(t *testing.T) {
	f := Front{NewPoint([]float64{1, 3}, nil), NewPoint([]float64{2, 2}, nil), NewPoint([]float64{3, 1}, nil)}
	if f.MinMakespan().Makespan() != 1 || f.MinEnergy().Energy() != 1 {
		t.Fatal("front extreme accessors wrong")
	}
}
