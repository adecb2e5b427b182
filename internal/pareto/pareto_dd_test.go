package pareto

// Tests of the d-dimensional generalization (PR 9): 3-D dominance,
// ranks and crowding, archive behaviour beyond two objectives, and
// hypervolume against hand-computed values (including agreement between
// the 2-D sweep fast path and the d-D slicing recursion).

import (
	"math"
	"testing"

	"spmap/internal/mapping"
)

func p3(a, b, c float64) Point { return NewPoint([]float64{a, b, c}, mapping.Mapping{0}) }

func TestDominates3D(t *testing.T) {
	cases := []struct {
		a, b Point
		dom  bool
	}{
		{p3(1, 1, 1), p3(2, 2, 2), true},
		{p3(1, 2, 3), p3(1, 2, 4), true},  // equal on two, better on one
		{p3(1, 2, 3), p3(1, 2, 3), false}, // equal everywhere
		{p3(1, 3, 2), p3(2, 2, 2), false}, // trade-off
		{p3(2, 2, 2), p3(1, 1, 1), false},
	}
	for i, tc := range cases {
		if got := tc.a.dominates(tc.b); got != tc.dom {
			t.Errorf("case %d: %v dominates %v = %v, want %v", i, tc.a.Vec, tc.b.Vec, got, tc.dom)
		}
	}
}

func TestMinObjective3D(t *testing.T) {
	f := Front{p3(1, 5, 9), p3(2, 4, 7), p3(3, 3, 8)}
	if got := f.MinObjective(2); got.Vec[2] != 7 {
		t.Fatalf("MinObjective(2) = %v", got.Vec)
	}
	if got := f.MinObjective(0); got.Vec[0] != 1 {
		t.Fatalf("MinObjective(0) = %v", got.Vec)
	}
}

// TestHypervolume3DKnownValues checks the slicing recursion against
// hand-computed unions of dominated boxes.
func TestHypervolume3DKnownValues(t *testing.T) {
	cases := []struct {
		name string
		f    Front
		ref  []float64
		want float64
	}{
		{"empty", Front{}, []float64{2, 2, 2}, 0},
		{"one box", Front{p3(1, 1, 1)}, []float64{2, 2, 2}, 1},
		{"outside ref", Front{p3(3, 1, 1)}, []float64{2, 2, 2}, 0},
		{"nested", Front{p3(1, 1, 1), p3(0.5, 1, 1)}, []float64{2, 2, 2}, 1.5},
		// Two trade-off boxes to ref (2,2,2):
		// A=(1,0,1): [1,2]x[0,2]x[1,2] -> 1*2*1 = 2
		// B=(0,1,1): [0,2]x[1,2]x[1,2] -> 2*1*1 = 2
		// overlap [1,2]x[1,2]x[1,2] = 1 -> union 3
		{"trade-off", Front{p3(1, 0, 1), p3(0, 1, 1)}, []float64{2, 2, 2}, 3},
		// Constant third coordinate: a 2-D staircase times depth 1.
		// Union to (4,4): [1,4]x[3,4] + [2,4]x[2,3] + [3,4]x[1,2] = 3+2+1 = 6.
		{"staircase", Front{p3(1, 3, 1), p3(2, 2, 1), p3(3, 1, 1)}, []float64{4, 4, 2}, 6},
	}
	for _, tc := range cases {
		ps := append(Front(nil), tc.f...)
		if got := ps.Hypervolume(tc.ref...); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Hypervolume(%v) = %v, want %v", tc.name, tc.ref, got, tc.want)
		}
	}
}

// TestHypervolume2DFastPathMatchesSlicing: embedding a 2-D front in 3-D
// with a constant third coordinate must scale the 2-D sweep value by the
// remaining depth — the two code paths must agree.
func TestHypervolume2DFastPathMatchesSlicing(t *testing.T) {
	f2 := Front{
		NewPoint([]float64{1, 8}, mapping.Mapping{0}),
		NewPoint([]float64{2, 5}, mapping.Mapping{0}),
		NewPoint([]float64{4, 4}, mapping.Mapping{0}),
		NewPoint([]float64{7, 1}, mapping.Mapping{0}),
	}
	hv2 := f2.Hypervolume(10, 10)
	var f3 Front
	for _, p := range f2 {
		f3 = append(f3, p3(p.Vec[0], p.Vec[1], 3))
	}
	hv3 := f3.Hypervolume(10, 10, 10)
	if math.Abs(hv3-hv2*7) > 1e-9 {
		t.Fatalf("3-D embedding %v != 2-D sweep %v * depth 7", hv3, hv2)
	}
}

func TestNonDominatedRanksVec3D(t *testing.T) {
	// Rank 0: (1,1,1). Rank 1: (2,2,1),(1,2,2) (mutually non-dominated,
	// both dominated by rank 0). Rank 2: (3,3,3).
	objs := [][]float64{
		{1, 2, 1, 3},
		{1, 2, 2, 3},
		{1, 1, 2, 3},
	}
	want := []int{0, 1, 1, 2}
	got := NonDominatedRanksVec(objs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestCrowdingDistanceVec3D(t *testing.T) {
	objs := [][]float64{
		{1, 2, 3},
		{3, 2, 1},
		{1, 2, 3},
	}
	front := []int{0, 1, 2}
	d := CrowdingDistanceVec(objs, front)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[2], 1) {
		t.Fatalf("boundary points not infinite: %v", d)
	}
	if math.IsInf(d[1], 1) || d[1] <= 0 {
		t.Fatalf("interior point distance %v", d[1])
	}
}

func TestArchive3D(t *testing.T) {
	a := NewArchive(0)
	if !a.Add(p3(2, 2, 2)) {
		t.Fatal("first point rejected")
	}
	if a.Add(p3(2, 2, 2)) {
		t.Fatal("duplicate accepted")
	}
	if a.Add(p3(3, 2, 2)) {
		t.Fatal("dominated point accepted")
	}
	if !a.Add(p3(1, 3, 2)) {
		t.Fatal("trade-off point rejected")
	}
	if !a.Add(p3(1, 1, 1)) {
		t.Fatal("dominating point rejected")
	}
	// (1,1,1) dominates both earlier points: the archive collapses.
	if a.Len() != 1 {
		t.Fatalf("archive length %d after dominating add, want 1", a.Len())
	}
	if got := a.Seen(); got != 5 {
		t.Fatalf("Seen() = %d, want 5", got)
	}
	f := a.Front()
	if len(f) != 1 || f[0].Vec[2] != 1 {
		t.Fatalf("front %v", f)
	}
}

func TestArchiveMixedDimensionPanics(t *testing.T) {
	a := NewArchive(0)
	a.Add(p3(1, 2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-dimension Add did not panic")
		}
	}()
	a.Add(NewPoint([]float64{1, 2}, mapping.Mapping{0}))
}

// TestArchiveEps3D: with a coarse grid, at most one point occupies each
// ε-box — the lexicographic winner — and boxes prune by box dominance.
func TestArchiveEps3D(t *testing.T) {
	a := NewArchive(0.5)
	if !a.Add(p3(1.2, 1.1, 1.4)) { // box (2,2,2)
		t.Fatal("first point rejected")
	}
	if a.Add(p3(1.3, 1.2, 1.45)) { // same box, lexicographically larger
		t.Fatal("same-box lexicographic loser accepted")
	}
	if !a.Add(p3(1.0, 1.3, 1.1)) { // same box, lexicographically smaller
		t.Fatal("same-box lexicographic winner rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("len %d after same-box replacement, want 1", a.Len())
	}
	if !a.Add(p3(2.6, 0.6, 1.1)) { // box (5,1,2): mutually non-dominated
		t.Fatal("trade-off box rejected")
	}
	if a.Len() != 2 {
		t.Fatalf("len %d, want 2", a.Len())
	}
	if !a.Add(p3(0.4, 0.4, 0.4)) { // box (0,0,0) dominates both boxes
		t.Fatal("dominating box rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("len %d after dominating box, want 1", a.Len())
	}
}
