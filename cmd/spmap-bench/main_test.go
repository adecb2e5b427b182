package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchFlagValidation drives run's flag-parsing path: unknown -exp
// names, negative numeric overrides and an unwritable -csv directory
// must fail as usage errors (exit status 2 in main) before any
// experiment runs, instead of producing partial or garbage output.
func TestBenchFlagValidation(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(unwritable, []byte("file, not dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown exp", []string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{"unknown exp in list", []string{"-exp", "fig3,warp"}, `unknown experiment "warp"`},
		{"negative graphs", []string{"-graphs", "-1"}, "-graphs must be >= 0"},
		{"negative schedules", []string{"-schedules", "-5"}, "-schedules must be >= 0"},
		{"negative generations", []string{"-generations", "-2"}, "-generations must be >= 0"},
		{"negative milp budget", []string{"-milp-budget", "-3s"}, "-milp-budget must be >= 0"},
		{"negative eps", []string{"-eps", "-0.1"}, "-eps must be >= 0"},
		{"negative workers", []string{"-workers", "-4"}, "-workers must be >= 0"},
		{"missing csv dir", []string{"-exp", "fig3", "-csv", filepath.Join(unwritable, "nope")}, "-csv directory not writable"},
		{"csv dir is a file", []string{"-exp", "fig3", "-csv", unwritable}, "-csv directory not writable"},
		{"uncreatable cpuprofile", []string{"-exp", "fig3", "-cpuprofile", filepath.Join(unwritable, "cpu.pprof")}, "-cpuprofile"},
		{"uncreatable memprofile", []string{"-exp", "fig3", "-memprofile", filepath.Join(unwritable, "mem.pprof")}, "-memprofile"},
		{"store without fleet", []string{"-exp", "fig3", "-store", "/tmp/x"}, "-store applies to -exp fleet only"},
		{"json without service fleet or certify", []string{"-exp", "fig3", "-json", "out.json"}, "-json applies to -exp service, fleet and certify only"},
		{"addr without service", []string{"-exp", "fleet", "-addr", "http://x"}, "-addr applies to -exp service only"},
		{"undeclared flag", []string{"-frobnicate"}, ""}, // FlagSet's own error
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			err := run(tc.args, io.Discard, &stderr)
			if err == nil {
				t.Fatalf("args %q accepted; want a usage error", tc.args)
			}
			if !isUsageError(err) {
				t.Fatalf("args %q: error %v is not a usage error (would not exit 2)", tc.args, err)
			}
			if tc.want != "" {
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("args %q: error %q does not contain %q", tc.args, err, tc.want)
				}
				if out := stderr.String(); !strings.Contains(out, "Usage") && !strings.Contains(out, "-exp") {
					t.Fatalf("args %q: no usage message on stderr:\n%s", tc.args, out)
				}
			}
		})
	}
}

// TestBenchOnlineExperiment smoke-runs the online warm-vs-cold
// comparison end to end on a tiny profile, including the CSV export.
func TestBenchOnlineExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	err := run([]string{"-exp", "online", "-graphs", "1", "-schedules", "2", "-csv", dir}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"WarmRepair", "ColdRemap", "online completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("online report missing %q:\n%s", want, out)
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "online.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "WarmRepair") {
		t.Fatalf("online.csv missing the warm series:\n%s", csv)
	}
	// No stray probe files may survive the writability check.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".spmap-bench-probe-") {
			t.Fatalf("writability probe %s left behind", e.Name())
		}
	}
}

// TestBenchIncrementalExperiment smoke-runs the move-throughput
// comparison end to end on a tiny profile with CSV export and both
// profilers enabled. The experiment itself panics if its two
// evaluation strategies ever disagree, so a clean run doubles as a
// differential check.
func TestBenchIncrementalExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout bytes.Buffer
	err := run([]string{"-exp", "incremental", "-schedules", "2",
		"-cpuprofile", cpu, "-memprofile", mem, "-csv", dir}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"full", "incremental", "moves/sec", "incremental completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("incremental report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "resume") {
		t.Fatalf("incremental report still carries the removed resume arm:\n%s", out)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "incremental.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "speedup_vs_full") {
		t.Fatalf("incremental.csv missing header:\n%s", csv)
	}
	for _, p := range []string{cpu, mem} {
		// StopCPUProfile runs in a defer inside run, so both files are
		// complete by the time run returns.
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestBenchFleetExperiment smoke-runs the sharded fleet experiment end
// to end on a tiny profile with CSV, JSON and a persistent checkpoint
// store. The experiment fails loudly if sharding changes any trace or a
// resumed stream diverges from the uninterrupted reference, so a clean
// run doubles as a crash-resume differential check.
func TestBenchFleetExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	dir := t.TempDir()
	store := filepath.Join(dir, "checkpoints")
	jsonPath := filepath.Join(dir, "fleet.json")
	var stdout bytes.Buffer
	err := run([]string{"-exp", "fleet", "-graphs", "4", "-schedules", "2",
		"-csv", dir, "-json", jsonPath, "-store", store}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"shard-sweep", "cadence-sweep", "4/4 resumed traces identical", "fleet completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet report missing %q:\n%s", want, out)
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fleet.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "trace_matches") {
		t.Fatalf("fleet.csv missing header:\n%s", csv)
	}
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"resume-verify"`) {
		t.Fatalf("fleet.json missing resume section:\n%s", js)
	}
	// The persistent store must hold the completed checkpoints.
	entries, err := os.ReadDir(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("persistent checkpoint store is empty after the run")
	}
}

// TestBenchRobustExperiment smoke-runs the uncertainty-aware robust
// comparison end to end on a tiny profile, including both CSV exports
// (the quality comparison and the Monte-Carlo cost sweep).
func TestBenchRobustExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	err := run([]string{"-exp", "robust", "-graphs", "1", "-schedules", "2", "-csv", dir}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"nom_tail", "rob_tail", "tail_impr", "Monte-Carlo batching cost", "overhead", "robust completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("robust report missing %q:\n%s", want, out)
		}
	}
	csvQ, err := os.ReadFile(filepath.Join(dir, "robust.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csvQ), "tail_improvement") {
		t.Fatalf("robust.csv missing header:\n%s", csvQ)
	}
	csvC, err := os.ReadFile(filepath.Join(dir, "robust_cost.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csvC), "overhead") {
		t.Fatalf("robust_cost.csv missing header:\n%s", csvC)
	}
}

// TestBenchCertifyExperiment smoke-runs the certificate experiment on a
// tiny profile: both sections print, the CSV exports, and the JSON
// rows (the BENCH_PR10.json shape) parse and carry certificates.
func TestBenchCertifyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "certify.json")
	var stdout bytes.Buffer
	err := run([]string{"-exp", "certify", "-graphs", "1", "-schedules", "2",
		"-csv", dir, "-json", jsonPath}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"sp-sweep", "gap-stop", "blast-s1", "bound_name", "certify completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("certify report missing %q:\n%s", want, out)
		}
	}
	csvB, err := os.ReadFile(filepath.Join(dir, "certify.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csvB), "lower_bound") || !strings.Contains(string(csvB), "budget_saved") {
		t.Fatalf("certify.csv missing header columns:\n%s", csvB)
	}
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"lower_bound"`)) || !bytes.Contains(js, []byte(`"gap"`)) {
		t.Fatalf("certify.json missing certificate fields:\n%s", js)
	}
}

// TestBenchValidatesBeforeRunning pins that a bad flag combined with a
// valid experiment never starts the sweep (no experiment output before
// the usage error).
func TestBenchValidatesBeforeRunning(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-exp", "fig3,bogus", "-graphs", "1"}, &stdout, io.Discard)
	if err == nil || !isUsageError(err) {
		t.Fatalf("got %v, want a usage error", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("experiment output emitted before validation failed:\n%s", stdout.String())
	}
}
