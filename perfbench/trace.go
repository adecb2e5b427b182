package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call the benchmark made. Start and End are
// nanoseconds since the tracer started; Parent is the index of the
// enclosing span (-1 for a root); Op groups the spans of one op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced ops pass nil and pay one nil check per call.
// It is safe for concurrent use (the service probe has two clients).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	// Preallocated so recording a span does not allocate in steady state
	// (the per-op allocation counts would otherwise depend on run length).
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent, op})
	return len(t.spans) - 1
}

// setParent re-parents span i; spans recorded before their enclosing
// span closed (a checkpoint save inside a fleet event) are linked late.
func (t *tracer) setParent(i, parent int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Parent = parent
	t.mu.Unlock()
}

// spanStats summarises the spans of one name, in milliseconds.
type spanStats struct {
	count          int
	meanMS, selfMS float64
}

// summary returns per-name span statistics. A span's self time is its
// duration minus the part of it that its child spans cover.
func (t *tracer) summary() map[string]spanStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	type acc struct {
		n         int
		dur, self int64
	}
	accs := map[string]*acc{}
	for i, s := range t.spans {
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.dur += d
		a.self += d - covered(children[i], s.Start, s.End)
	}
	out := make(map[string]spanStats, len(accs))
	for name, a := range accs {
		out[name] = spanStats{a.n, float64(a.dur) / float64(a.n) / 1e6, float64(a.self) / float64(a.n) / 1e6}
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans as JSON lines into dir and prints the per-name
// summary to standard error.
func (t *tracer) write(dir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	sum := t.summary()
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := sum[n]
		fmt.Fprintf(os.Stderr, "span %-20s n=%-6d mean=%.3fms self=%.3fms\n", n, s.count, s.meanMS, s.selfMS)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
