package model

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

// twoDevicePlatform returns a simple deterministic platform for hand
// computations: one single-slot CPU at 1e9 ops/s (1 lane) and one
// streaming spatial FPGA at 1e9 base with area 100, links 1e9 B/s with
// zero latency.
func twoDevicePlatform() *platform.Platform {
	return &platform.Platform{
		Default: 0,
		Devices: []platform.Device{
			{Name: "cpu", Kind: platform.CPU, Lanes: 1, PeakOps: 1e9, Bandwidth: 1e9},
			{Name: "fpga", Kind: platform.FPGA, Lanes: 1, PeakOps: 1e9, Streaming: true,
				Spatial: true, Area: 100, Bandwidth: 1e9},
		},
	}
}

func TestExecTimeAmdahl(t *testing.T) {
	g := graph.New(1, 0)
	g.AddTask(graph.Task{Complexity: 2, Parallelizability: 0.5, SourceBytes: 1e9})
	// CPU with 4 lanes, peak 4e9 (1e9/lane), 1 slot: work = 2e9 ops,
	// exec = W*(0.5/4e9 + 0.5/1e9) = 2e9 * (0.125e-9 + 0.5e-9) = 1.25s.
	d := platform.Device{Lanes: 4, PeakOps: 4e9, Slots: 1, Bandwidth: 1, Latency: 0}
	got := ExecTime(g, 0, &d)
	if math.Abs(got-1.25) > 1e-9 {
		t.Fatalf("exec = %v, want 1.25", got)
	}
	// Perfect parallelism: W/peak = 0.5s.
	g.Task(0).Parallelizability = 1
	if got := ExecTime(g, 0, &d); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("exec = %v, want 0.5", got)
	}
}

func TestExecTimeSlots(t *testing.T) {
	g := graph.New(1, 0)
	g.AddTask(graph.Task{Complexity: 1, Parallelizability: 1, SourceBytes: 1e9})
	d := platform.Device{Lanes: 4, PeakOps: 4e9, Slots: 2, Bandwidth: 1}
	// Slot peak = 2e9 => 0.5s.
	if got := ExecTime(g, 0, &d); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("exec = %v, want 0.5", got)
	}
}

func TestExecTimeStreaming(t *testing.T) {
	g := graph.New(1, 0)
	g.AddTask(graph.Task{Complexity: 1, Streamability: 4, SourceBytes: 1e9})
	d := platform.Device{Lanes: 1, PeakOps: 1e9, Streaming: true, Bandwidth: 1}
	// W/(peak*stream) = 1e9/(4e9) = 0.25s.
	if got := ExecTime(g, 0, &d); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("exec = %v, want 0.25", got)
	}
}

func TestExecTimeVirtualFree(t *testing.T) {
	g := graph.New(1, 0)
	g.AddTask(graph.Task{Complexity: 5, Virtual: true, SourceBytes: 1e9})
	d := platform.Device{Lanes: 1, PeakOps: 1e9, Bandwidth: 1}
	if got := ExecTime(g, 0, &d); got != 0 {
		t.Fatalf("virtual task exec = %v, want 0", got)
	}
}

func TestTransferTime(t *testing.T) {
	p := platform.Reference()
	if got := p.TransferTime(0, 0, 1e9); got != 0 {
		t.Fatalf("co-located transfer = %v, want 0", got)
	}
	got := p.TransferTime(0, 1, 1.5e9)
	want := p.Devices[0].Latency + p.Devices[1].Latency + 1.5e9/p.Devices[1].Bandwidth
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("transfer = %v, want %v", got, want)
	}
	if p.TransferTime(1, 2, 1e6) <= 0 {
		t.Fatal("GPU->FPGA transfer must cost time")
	}
}

func TestMakespanChainByHand(t *testing.T) {
	// Two tasks of 1s each on the CPU, 1e9 B edge: serial, no transfer =>
	// makespan 2s. Split across CPU and FPGA: 1s + 1s transfer + exec.
	g := graph.New(2, 1)
	g.AddTask(graph.Task{Complexity: 1, Parallelizability: 0, Streamability: 1, SourceBytes: 1e9})
	g.AddTask(graph.Task{Complexity: 1, Parallelizability: 0, Streamability: 1})
	g.AddEdge(0, 1, 1e9)
	p := twoDevicePlatform()
	ev := NewEvaluator(g, p)
	base := ev.Makespan(mapping.Mapping{0, 0})
	if math.Abs(base-2) > 1e-9 {
		t.Fatalf("chain on CPU = %v, want 2", base)
	}
	split := ev.Makespan(mapping.Mapping{0, 1})
	// task0 1s, transfer 1s, task1 on fpga (stream 1): 1s => 3s.
	if math.Abs(split-3) > 1e-9 {
		t.Fatalf("split chain = %v, want 3", split)
	}
}

func TestMakespanStreamingOverlap(t *testing.T) {
	// Both tasks on the FPGA with streamability 4: task1 starts after
	// exec0/4 and finishes >= finish0 + exec1/4.
	g := graph.New(2, 1)
	g.AddTask(graph.Task{Complexity: 1, Streamability: 4, SourceBytes: 1e9})
	g.AddTask(graph.Task{Complexity: 1, Streamability: 4})
	g.AddEdge(0, 1, 1e9)
	p := twoDevicePlatform()
	ev := NewEvaluator(g, p)
	ms := ev.Makespan(mapping.Mapping{1, 1})
	// Source transfer 1s; exec = 0.25s each (stream 4). start0 = 1,
	// start1 = 1 + 0.25/4 = 1.0625; finish1 = max(1.0625+0.25,
	// 1.25+0.25/4) = 1.3125.
	if math.Abs(ms-1.3125) > 1e-9 {
		t.Fatalf("streamed chain = %v, want 1.3125", ms)
	}
	// The streamed chain must beat the non-overlapped sum (1 + 0.5).
	if ms >= 1.5 {
		t.Fatal("streaming must overlap execution")
	}
}

func TestMakespanContention(t *testing.T) {
	// Two independent 1s tasks on a 1-slot CPU serialize (2s); on a
	// 2-slot CPU they run concurrently (1s each slot at half peak => 2s
	// each? no: slots partition peak, so exec doubles).
	g := graph.New(2, 0)
	g.AddTask(graph.Task{Complexity: 1, Parallelizability: 0, SourceBytes: 1e9})
	g.AddTask(graph.Task{Complexity: 1, Parallelizability: 0, SourceBytes: 1e9})
	p := twoDevicePlatform()
	ev := NewEvaluator(g, p)
	ms := ev.Makespan(mapping.Mapping{0, 0})
	if math.Abs(ms-2) > 1e-9 {
		t.Fatalf("two tasks on 1-slot CPU = %v, want 2 (serialized)", ms)
	}
}

func TestFeasibility(t *testing.T) {
	g := graph.New(2, 0)
	g.AddTask(graph.Task{Complexity: 1, Area: 80, SourceBytes: 1})
	g.AddTask(graph.Task{Complexity: 1, Area: 80, SourceBytes: 1})
	p := twoDevicePlatform()
	ev := NewEvaluator(g, p)
	if !ev.Feasible(mapping.Mapping{1, 0}) {
		t.Fatal("single task within area must be feasible")
	}
	if ev.Feasible(mapping.Mapping{1, 1}) {
		t.Fatal("160 area on a 100-area FPGA must be infeasible")
	}
	if ms := ev.Makespan(mapping.Mapping{1, 1}); ms != Infeasible {
		t.Fatalf("infeasible mapping makespan = %v, want Infeasible", ms)
	}
}

func TestScheduleSetMinimum(t *testing.T) {
	// Adding random schedules can only reduce the reported makespan.
	p := platform.Reference()
	rng := rand.New(rand.NewSource(5))
	g := gen.SeriesParallel(rng, 50, gen.DefaultAttr())
	m := mapping.Baseline(g, p)
	bfsOnly := NewEvaluator(g, p).Makespan(m)
	with := NewEvaluator(g, p).WithSchedules(50, 3).Makespan(m)
	if with > bfsOnly+1e-12 {
		t.Fatalf("min over more schedules grew: %v > %v", with, bfsOnly)
	}
	if NewEvaluator(g, p).NumSchedules() != 1 {
		t.Fatal("default evaluator must have exactly the BFS schedule")
	}
	if NewEvaluator(g, p).WithSchedules(50, 3).NumSchedules() != 51 {
		t.Fatal("WithSchedules(50) must yield 51 schedules")
	}
}

func TestDeterminism(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(9))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	m := mapping.New(g.NumTasks(), 0)
	for i := range m {
		if i%3 == 0 {
			m[i] = 1
		}
	}
	e1 := NewEvaluator(g, p).WithSchedules(30, 7)
	e2 := NewEvaluator(g, p).WithSchedules(30, 7)
	if e1.Makespan(m) != e2.Makespan(m) {
		t.Fatal("evaluator must be deterministic for a fixed seed")
	}
}

func TestCloneSharesTableIndependentScratch(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(2))
	g := gen.SeriesParallel(rng, 30, gen.DefaultAttr())
	ev := NewEvaluator(g, p).WithSchedules(10, 1)
	cl := ev.Clone()
	m := mapping.Baseline(g, p)
	a, b := ev.Makespan(m), cl.Makespan(m)
	if a != b {
		t.Fatalf("clone disagrees: %v vs %v", a, b)
	}
	done := make(chan bool)
	go func() {
		for i := 0; i < 100; i++ {
			cl.Makespan(m)
		}
		done <- true
	}()
	for i := 0; i < 100; i++ {
		ev.Makespan(m)
	}
	<-done
}

func TestEntrySourceTransfer(t *testing.T) {
	// An entry task mapped off-CPU pays for shipping its source data.
	g := graph.New(1, 0)
	g.AddTask(graph.Task{Complexity: 1, Streamability: 1, SourceBytes: 1e9})
	p := twoDevicePlatform()
	ev := NewEvaluator(g, p)
	onCPU := ev.Makespan(mapping.Mapping{0})
	onFPGA := ev.Makespan(mapping.Mapping{1})
	if math.Abs(onCPU-1) > 1e-9 {
		t.Fatalf("cpu = %v, want 1", onCPU)
	}
	if math.Abs(onFPGA-2) > 1e-9 { // 1s source transfer + 1s exec
		t.Fatalf("fpga = %v, want 2", onFPGA)
	}
}

func TestRelativeImprovement(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(4))
	g := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	ev := NewEvaluator(g, p)
	base := ev.BaselineMakespan()
	if got := ev.RelativeImprovement(base); got != 0 {
		t.Fatalf("no improvement for the baseline itself, got %v", got)
	}
	if got := ev.RelativeImprovement(base * 2); got != 0 {
		t.Fatalf("deteriorations must truncate to 0, got %v", got)
	}
	if got := ev.RelativeImprovement(base / 2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("halving the makespan = %v, want 0.5", got)
	}
}

func TestCloneWithSchedulesDoesNotAliasOrders(t *testing.T) {
	// Clone shares the orders backing array; a WithSchedules on the clone
	// must not rewrite the original's schedule set in place (regression:
	// the in-place truncate-and-append corrupted the sibling's orders and
	// desynchronized them from its compiled engine).
	p := platform.Reference()
	rng := rand.New(rand.NewSource(14))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	ev := NewEvaluator(g, p).WithSchedules(10, 1)
	before := append([][]graph.NodeID(nil), ev.orders...)
	_ = ev.Makespan(mapping.Baseline(g, p)) // compile the engine from seed-1 orders

	cl := ev.Clone()
	cl.WithSchedules(10, 2)

	for i, order := range ev.orders {
		for j, v := range order {
			if before[i][j] != v {
				t.Fatalf("order %d changed at %d after clone.WithSchedules", i, j)
			}
		}
	}
	for i := 0; i < 10; i++ {
		m := make(mapping.Mapping, g.NumTasks())
		for v := range m {
			m[v] = rng.Intn(p.NumDevices())
		}
		if got, want := ev.ReferenceMakespan(m), ev.Makespan(m); got != want {
			t.Fatalf("mapping %d: reference %v != engine %v after clone re-schedule", i, got, want)
		}
		if got, want := cl.ReferenceMakespan(m), cl.Makespan(m); got != want {
			t.Fatalf("mapping %d: clone reference %v != clone engine %v", i, got, want)
		}
	}
}
