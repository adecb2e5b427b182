package sp

import "spmap/internal/graph"

// Index answers tree-membership queries against a decomposition forest:
// which decomposition trees cover a task and, centrally, whether a set
// of tasks lies within a single tree. Within fits the gate parameter of
// eval's incremental sessions, which only decides whether a patch's
// replay enables the dominance abort: a patch whose tasks all belong to
// one series-parallel decomposition tree enables it, a patch spanning
// several trees (possible only on non-series-parallel graphs, whose
// forest has cut trees) replays without it. No mapper gates its
// session: the abort is sound for any patch. The benchmark's session probe
// (perfbench/harness.go) opens its sessions with Within, which is why
// the gate, the session's FastPath/Fallback counters and this index are
// kept.
//
// Membership is stored as one bitset of trees per task, so Within is a
// handful of word ANDs per queried task. Boundary nodes (a cut tree's
// endpoints) legitimately belong to several trees; edges belong to
// exactly one (the forest partitions the edge set). Virtual
// normalization nodes (ids >= the task count handed to NewIndex) and
// graph.None are ignored by every query.
//
// An Index reuses an internal scratch word vector across Within calls
// and is therefore NOT safe for concurrent use; give each goroutine its
// own Index.
type Index struct {
	numTasks int
	words    int      // bitset words per task
	member   []uint64 // [task*words + w]
	trees    [][]graph.NodeID
	scratch  []uint64
}

// NewIndex builds the membership index of f over the first numTasks task
// ids (pass the ORIGINAL graph's task count: decomposition runs on a
// normalized clone whose virtual nodes carry ids >= numTasks, and those
// never appear in mappings or patches).
func NewIndex(f *Forest, numTasks int) *Index {
	nt := len(f.Trees)
	words := (nt + 63) / 64
	if words == 0 {
		words = 1
	}
	ix := &Index{
		numTasks: numTasks,
		words:    words,
		member:   make([]uint64, numTasks*words),
		trees:    make([][]graph.NodeID, nt),
		scratch:  make([]uint64, words),
	}
	for ti, t := range f.Trees {
		for _, v := range t.Nodes() {
			if int(v) < 0 || int(v) >= numTasks {
				continue
			}
			ix.member[int(v)*words+ti/64] |= 1 << (uint(ti) % 64)
			ix.trees[ti] = append(ix.trees[ti], v)
		}
	}
	return ix
}

// NumTrees returns the number of decomposition trees indexed.
func (ix *Index) NumTrees() int { return len(ix.trees) }

// NumTasks returns the task-id range the index covers.
func (ix *Index) NumTasks() int { return ix.numTasks }

// Tasks returns the sorted (ascending id) real tasks covered by tree i.
// The returned slice is owned by the index; do not modify it.
func (ix *Index) Tasks(i int) []graph.NodeID { return ix.trees[i] }

// Within reports whether some single decomposition tree contains every
// task in the set (virtual ids and graph.None are ignored; the empty set
// is trivially within). Not safe for concurrent use (shared scratch).
func (ix *Index) Within(tasks []graph.NodeID) bool {
	scratch := ix.scratch
	seen := false
	for _, v := range tasks {
		if v == graph.None || int(v) < 0 || int(v) >= ix.numTasks {
			continue
		}
		row := ix.member[int(v)*ix.words : (int(v)+1)*ix.words]
		if !seen {
			copy(scratch, row)
			seen = true
			continue
		}
		for w := range scratch {
			scratch[w] &= row[w]
		}
	}
	if !seen {
		return true
	}
	for _, w := range scratch {
		if w != 0 {
			return true
		}
	}
	return false
}
