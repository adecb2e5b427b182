// Package pareto implements the multi-objective extension the paper
// sketches in §II-A ("the basic algorithmic ideas presented in this
// work can easily be transferred to multi-objective optimization"): a
// bounded ε-dominance Pareto archive with deterministic tie-breaking,
// the non-dominated-sorting and crowding-distance primitives of
// NSGA-II, and front quality metrics.
//
// Since the objective-vector refactor (PR 9) every primitive works on
// d-dimensional objective vectors. Points carry Vec, an arbitrary-
// length minimized objective vector; by convention Vec[0] is the
// makespan and Vec[1] the compute energy (the historical hard-coded
// pair, still exposed as Makespan/Energy accessors), and further
// objectives — the Monte-Carlo robust makespan first — simply extend
// the vector. Every 2-D code path is the generalized loop at d = 2,
// performing the identical comparisons in the identical order, so
// two-objective fronts (and the golden Pareto corpus pinned in the
// repo tests) are bit-identical to the pre-refactor implementation.
//
// All operations are deterministic: the archive's final contents depend
// only on the set of inserted points, never on their insertion order
// (see Archive), and every sort breaks ties by explicit total orders,
// so multi-objective mappers built on this package inherit the repo's
// determinism contract (identical fronts for any engine worker count).
package pareto

import (
	"math"

	"spmap/internal/mapping"
)

// Infeasible marks points of infeasible mappings; the archive rejects
// them. It equals model.Infeasible.
const Infeasible = math.MaxFloat64

// Point is one objective-vector outcome of a mapping. All objectives
// are minimized. Vec[0] is the makespan and Vec[1] the energy by
// convention; points compared against each other must share one
// objective vector length.
type Point struct {
	Vec     []float64
	Mapping mapping.Mapping
}

// NewPoint builds a point over the given objective vector. The vector
// is stored as-is (not cloned) and must not be mutated afterwards.
func NewPoint(vec []float64, m mapping.Mapping) Point {
	return Point{Vec: vec, Mapping: m}
}

// Objective returns the i-th objective value.
func (p Point) Objective(i int) float64 { return p.Vec[i] }

// Makespan returns the conventional first objective.
func (p Point) Makespan() float64 { return p.Vec[0] }

// Energy returns the conventional second objective.
func (p Point) Energy() float64 { return p.Vec[1] }

// dominatesVec reports whether a weakly dominates b with at least one
// strict improvement (standard Pareto dominance on minimization).
func dominatesVec(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// dominates reports whether p dominates q (see dominatesVec).
func (p Point) dominates(q Point) bool { return dominatesVec(p.Vec, q.Vec) }

// less is the deterministic total order behind every archive decision:
// lexicographic by (Vec, Mapping). It is consistent with dominance —
// p dominates q implies less(p, q) — so preferring the less point
// within an ε-box never discards a dominating point.
func less(p, q Point) bool {
	for i := range p.Vec {
		if i >= len(q.Vec) {
			return false
		}
		if p.Vec[i] != q.Vec[i] {
			return p.Vec[i] < q.Vec[i]
		}
	}
	if len(p.Vec) != len(q.Vec) {
		return len(p.Vec) < len(q.Vec)
	}
	for i := range p.Mapping {
		if i >= len(q.Mapping) {
			return false
		}
		if p.Mapping[i] != q.Mapping[i] {
			return p.Mapping[i] < q.Mapping[i]
		}
	}
	return len(p.Mapping) < len(q.Mapping)
}

// Front is a set of mutually non-dominated points sorted by the less
// order — ascending first objective (makespan), with ties broken by
// the remaining objectives and the mapping.
type Front []Point

// MinMakespan returns the front's fastest point (the front must be
// non-empty); fronts are sorted, so it is the first point.
func (f Front) MinMakespan() Point { return f[0] }

// MinEnergy returns the front's most energy-efficient point. On a
// two-objective front this is the last point of the sorted order; in
// general it is MinObjective(1).
func (f Front) MinEnergy() Point { return f.MinObjective(1) }

// MinObjective returns the front's minimum point along objective j,
// breaking value ties by the less order (the front must be non-empty).
func (f Front) MinObjective(j int) Point {
	best := f[0]
	for _, p := range f[1:] {
		if p.Vec[j] < best.Vec[j] {
			best = p
		}
	}
	return best
}

// Hypervolume returns the volume weakly dominated by the front within
// the box bounded by the reference point — the standard front quality
// scalar, generalized to any dimension matching the reference vector.
// Points outside the reference box contribute only their clipped part;
// an empty front has hypervolume 0. The two-objective case runs the
// classic linear sweep over the sorted front (unchanged from the
// pre-refactor implementation); higher dimensions recurse by slicing
// along the last objective, which is exact but exponential in d — fine
// for the d <= 4 fronts the mappers produce.
func (f Front) Hypervolume(ref ...float64) float64 {
	if len(ref) == 2 {
		refMs, refEn := ref[0], ref[1]
		hv := 0.0
		en := refEn // sweep down in energy as makespan increases
		for _, p := range f {
			if p.Vec[0] >= refMs || p.Vec[1] >= en {
				continue
			}
			hv += (refMs - p.Vec[0]) * (en - p.Vec[1])
			en = p.Vec[1]
		}
		return hv
	}
	// General case: clip to the reference box, then slice recursively.
	vecs := make([][]float64, 0, len(f))
	for _, p := range f {
		inside := true
		for i, r := range ref {
			if p.Vec[i] >= r {
				inside = false
				break
			}
		}
		if inside {
			vecs = append(vecs, p.Vec[:len(ref)])
		}
	}
	return hvSlice(vecs, ref)
}

// hvSlice computes the hypervolume of an arbitrary point set (each
// vector strictly inside the reference box) by slicing along the last
// objective: between consecutive distinct values of the last
// coordinate, the dominated cross-section is the (d-1)-dimensional
// hypervolume of the points at or below the slab.
func hvSlice(vecs [][]float64, ref []float64) float64 {
	if len(vecs) == 0 {
		return 0
	}
	d := len(ref)
	if d == 1 {
		min := vecs[0][0]
		for _, v := range vecs[1:] {
			if v[0] < min {
				min = v[0]
			}
		}
		return ref[0] - min
	}
	if d == 2 {
		return hv2Set(vecs, ref[0], ref[1])
	}
	// Deterministic insertion sort ascending by the last coordinate.
	sorted := make([][]float64, len(vecs))
	copy(sorted, vecs)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j][d-1] < sorted[j-1][d-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	total := 0.0
	proj := make([][]float64, 0, len(sorted))
	for j := 0; j < len(sorted); j++ {
		proj = append(proj, sorted[j][:d-1])
		z := sorted[j][d-1]
		zNext := ref[d-1]
		if j+1 < len(sorted) {
			zNext = sorted[j+1][d-1]
		}
		if zNext > z {
			total += hvSlice(proj, ref[:d-1]) * (zNext - z)
		}
	}
	return total
}

// hv2Set is the two-dimensional base case over an arbitrary (not
// necessarily mutually non-dominated) point set: the area of the union
// of the boxes [x, refX] x [y, refY], by a sweep over ascending x.
func hv2Set(vecs [][]float64, refX, refY float64) float64 {
	sorted := make([][]float64, len(vecs))
	copy(sorted, vecs)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j][0] < sorted[j-1][0]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	area := 0.0
	minY := refY
	for i, v := range sorted {
		if v[1] < minY {
			minY = v[1]
		}
		xNext := refX
		if i+1 < len(sorted) {
			xNext = sorted[i+1][0]
		}
		if xNext > v[0] && minY < refY {
			area += (xNext - v[0]) * (refY - minY)
		}
	}
	return area
}

// Archive is a bounded ε-dominance Pareto archive over d-objective
// minimization, in the style of Laumanns et al.: objective space is
// partitioned into an ε-grid (box index floor(v/ε) per objective), a
// candidate is rejected if an archived point's box dominates its box,
// archived points whose boxes the candidate's box dominates are
// evicted, and within one box the lexicographic minimum (objective
// vector, mapping) survives. With ε > 0 the archive holds at most one
// point per occupied minimal box, which bounds both memory and
// per-insert cost. ε = 0 degenerates to the exact non-dominated
// archive (every comparison on the raw values).
//
// The archived set depends only on the set of points ever offered to
// Add, never on their order: box dominance is a partial order on the
// grid, so the surviving boxes are exactly the minimal occupied ones,
// and the within-box winner is the minimum of a total order. Archived
// points are always actually inserted points (boxes are never rounded
// to corners), so every archived point weakly dominates some inserted
// point — itself — and archived points are mutually non-dominated in
// the true (not just box) sense.
//
// All points offered to one archive must share one objective-vector
// length; the first archived point fixes it.
//
// An Archive is not safe for concurrent use.
type Archive struct {
	eps  float64
	dim  int     // objective count, fixed by the first archived point
	pts  []Point // sorted ascending by less (=> ascending first objective)
	seen int
}

// NewArchive returns an empty archive with resolution eps >= 0.
func NewArchive(eps float64) *Archive {
	if eps < 0 || math.IsNaN(eps) {
		eps = 0
	}
	return &Archive{eps: eps}
}

// Eps returns the archive's ε-grid resolution.
func (a *Archive) Eps() float64 { return a.eps }

// Len returns the number of archived points.
func (a *Archive) Len() int { return len(a.pts) }

// Seen returns the number of feasible points offered to Add.
func (a *Archive) Seen() int { return a.seen }

// boxCoord returns one ε-grid coordinate; with eps = 0 the raw value
// acts as an (infinitely fine) coordinate.
func (a *Archive) boxCoord(v float64) float64 {
	if a.eps == 0 {
		return v
	}
	return math.Floor(v / a.eps)
}

// Add offers p to the archive and reports whether it was archived. The
// mapping is cloned, so callers may keep mutating their buffer.
// Infeasible or non-finite points are rejected; offering a point whose
// objective count differs from the archive's panics (mixing vector
// lengths is a programming error, not a data condition).
func (a *Archive) Add(p Point) bool {
	if len(p.Vec) == 0 || p.Mapping == nil {
		return false
	}
	for _, v := range p.Vec {
		if v >= Infeasible || math.IsNaN(v) {
			return false
		}
	}
	if a.dim == 0 {
		a.dim = len(p.Vec)
	} else if len(p.Vec) != a.dim {
		panic("pareto: archive offered points with mixed objective counts")
	}
	a.seen++
	// Reject pass: p loses to an archived point whose box dominates p's,
	// or to the lexicographic winner of p's own box. (At most one
	// archived point occupies any box, and archived boxes are mutually
	// non-dominated, so the first deciding comparison is the only one.)
	for _, q := range a.pts {
		same, qDomP := true, true
		for i := range p.Vec {
			pb, qb := a.boxCoord(p.Vec[i]), a.boxCoord(q.Vec[i])
			if qb != pb {
				same = false
			}
			if qb > pb {
				qDomP = false
			}
		}
		if same {
			if !less(p, q) {
				return false
			}
			break
		}
		if qDomP {
			return false
		}
	}
	// Evict pass: drop every archived point whose box p's box weakly
	// dominates (including the same-box loser), then insert p in sorted
	// position.
	keep := a.pts[:0]
	for _, q := range a.pts {
		pDomQ := true
		for i := range p.Vec {
			if a.boxCoord(p.Vec[i]) > a.boxCoord(q.Vec[i]) {
				pDomQ = false
				break
			}
		}
		if pDomQ {
			continue
		}
		keep = append(keep, q)
	}
	p.Mapping = p.Mapping.Clone()
	a.pts = append(keep, p)
	for i := len(a.pts) - 1; i > 0 && less(a.pts[i], a.pts[i-1]); i-- {
		a.pts[i], a.pts[i-1] = a.pts[i-1], a.pts[i]
	}
	return true
}

// Front returns the archived non-dominated front sorted by ascending
// first objective. The returned slice is a copy; the mappings are
// shared.
func (a *Archive) Front() Front {
	f := make(Front, len(a.pts))
	copy(f, a.pts)
	return f
}

// NonDominatedRanksVec performs the fast non-dominated sort of NSGA-II
// over column-major objective vectors (objs[j][i] is objective j of
// point i): rank[i] = 0 for the non-dominated front, 1 for the front
// after removing rank 0, and so on. Infeasible points always rank
// behind every feasible point (they form the final fronts, every
// objective being Infeasible for all of them — the repair step makes
// them rare). The result is deterministic: it depends only on the
// objective values.
func NonDominatedRanksVec(objs [][]float64) []int {
	n := 0
	if len(objs) > 0 {
		n = len(objs[0])
	}
	rank := make([]int, n)
	dominatedBy := make([]int, n) // points dominating i, not yet ranked
	dominating := make([][]int, n)
	var current []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			iLT, jLT := false, false
			for _, col := range objs {
				if col[i] < col[j] {
					iLT = true
				} else if col[i] > col[j] {
					jLT = true
				}
			}
			if iLT && !jLT {
				dominating[i] = append(dominating[i], j)
				dominatedBy[j]++
			} else if jLT && !iLT {
				dominating[j] = append(dominating[j], i)
				dominatedBy[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if dominatedBy[i] == 0 {
			current = append(current, i)
		}
	}
	for r := 0; len(current) > 0; r++ {
		var next []int
		for _, i := range current {
			rank[i] = r
			for _, j := range dominating[i] {
				if dominatedBy[j]--; dominatedBy[j] == 0 {
					next = append(next, j)
				}
			}
		}
		current = next
	}
	return rank
}

// CrowdingDistanceVec returns the NSGA-II crowding distance of the
// points indexed by front within the column-major objective arrays:
// boundary points get +Inf, interior points the normalized side length
// sum of the cuboid spanned by their objective-wise neighbors. Ties in
// objective values are ordered by index, so the result is
// deterministic.
func CrowdingDistanceVec(objs [][]float64, front []int) []float64 {
	k := len(front)
	dist := make([]float64, k)
	if k <= 2 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	order := make([]int, k) // positions into front, sorted per objective
	for _, obj := range objs {
		for i := range order {
			order[i] = i
		}
		// Deterministic insertion sort by (value, index).
		for i := 1; i < k; i++ {
			for j := i; j > 0; j-- {
				a, b := order[j], order[j-1]
				if obj[front[a]] < obj[front[b]] ||
					(obj[front[a]] == obj[front[b]] && front[a] < front[b]) {
					order[j], order[j-1] = order[j-1], order[j]
				} else {
					break
				}
			}
		}
		lo, hi := obj[front[order[0]]], obj[front[order[k-1]]]
		dist[order[0]] = math.Inf(1)
		dist[order[k-1]] = math.Inf(1)
		if span := hi - lo; span > 0 {
			for i := 1; i < k-1; i++ {
				dist[order[i]] += (obj[front[order[i+1]]] - obj[front[order[i-1]]]) / span
			}
		}
	}
	return dist
}
