package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmoke runs a batch of consecutive seeds — cycling through all nine
// policy cells — and fails with the full report (fault plans, violations,
// replay commands) if any schedule breaks its contract. CI runs a larger
// batch through cudele-bench; this keeps `go test` self-contained.
func TestSmoke(t *testing.T) {
	n := 90
	if testing.Short() {
		n = 18
	}
	results := RunMany(Seeds(1, n), 0)
	var buf bytes.Buffer
	if failed := Report(&buf, results); failed > 0 {
		t.Errorf("%d schedules failed:\n%s", failed, buf.String())
	}
}

// TestMigrationSchedules hunts down seeds whose plans migrate the main
// subtree mid-run — including ones that also crash the owning rank and
// ones that tear the export-commit record — and runs them all. This is
// the crash-matrix guarantee for online migration: whatever the handoff
// was doing when the fault struck, every Table-I contract still holds.
func TestMigrationSchedules(t *testing.T) {
	want := 24
	if testing.Short() {
		want = 8
	}
	var seeds []int64
	var withCrash, withTorn int
	for s := int64(1); len(seeds) < want && s < 10000; s++ {
		p := NewPlan(s)
		if !p.Migrate {
			continue
		}
		seeds = append(seeds, s)
		if p.TornCommit {
			withTorn++
		}
		for _, f := range p.Faults.Faults {
			if f.Kind == FaultMDSCrash {
				withCrash++
				break
			}
		}
	}
	if len(seeds) < want {
		t.Fatalf("found only %d migration plans in 10000 seeds", len(seeds))
	}
	if withCrash == 0 || withTorn == 0 {
		t.Fatalf("coverage hole: %d plans with an MDS crash, %d with a torn commit record",
			withCrash, withTorn)
	}
	results := RunMany(seeds, 0)
	var buf bytes.Buffer
	if failed := Report(&buf, results); failed > 0 {
		t.Errorf("%d migration schedules failed:\n%s", failed, buf.String())
	}
	// At least some handoffs must actually commit, or the schedules are
	// exercising nothing but aborts.
	committed := 0
	for _, r := range results {
		committed += r.Migrations
	}
	if committed == 0 {
		t.Errorf("no migration committed across %d schedules", len(seeds))
	}
}

// TestDeterministicAcrossWorkers asserts the harness's core reproduction
// promise: the same seeds yield a byte-identical report at any worker
// count, so a CI failure replays exactly on a laptop.
func TestDeterministicAcrossWorkers(t *testing.T) {
	seeds := Seeds(1, 27)
	var reports []string
	for _, w := range []int{1, 4, 16} {
		var buf bytes.Buffer
		Report(&buf, RunMany(seeds, w))
		reports = append(reports, buf.String())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("report differs between 1 worker and %d workers", []int{1, 4, 16}[i])
		}
	}
}

// TestPlanDeterministic asserts a plan is a pure function of its seed —
// the property that makes -chaos-replay trustworthy.
func TestPlanDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		a, b := NewPlan(seed), NewPlan(seed)
		if a.String() != b.String() {
			t.Errorf("seed %d: plan not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestSeedsCoverMatrix asserts nine consecutive seeds hit all nine cells
// of the consistency x durability matrix.
func TestSeedsCoverMatrix(t *testing.T) {
	cells := make(map[string]bool)
	for _, seed := range Seeds(1, 9) {
		cells[NewPlan(seed).Cell()] = true
	}
	if len(cells) != 9 {
		t.Errorf("9 consecutive seeds cover %d cells, want 9: %v", len(cells), cells)
	}
}

// TestPlanCycleOneByteIdentical pins the compatibility contract for the
// versioned cell cycle: cycle 1 is the default, and its plans — including
// their printed form, which seeds the replay commands in CI history — are
// byte-identical to what NewPlan always produced.
func TestPlanCycleOneByteIdentical(t *testing.T) {
	for _, seed := range Seeds(0, 40) {
		a, b := NewPlan(seed), NewPlanCycle(seed, 1)
		if a.String() != b.String() {
			t.Fatalf("seed %d: cycle-1 plan differs from NewPlan:\n%s\nvs\n%s", seed, a, b)
		}
		if a.Cell() != b.Cell() {
			t.Fatalf("seed %d: cycle-1 cell %s != %s", seed, b.Cell(), a.Cell())
		}
	}
}

// TestPlanCycleTwoCoversAllCells asserts fifteen consecutive seeds under
// cycle 2 hit all fifteen cells — the nine Table-I cells plus speculative
// and strong-eventual crossed with every durability level.
func TestPlanCycleTwoCoversAllCells(t *testing.T) {
	cells := make(map[string]bool)
	for _, seed := range Seeds(1, 15) {
		cells[NewPlanCycle(seed, 2).Cell()] = true
	}
	if len(cells) != 15 {
		t.Errorf("15 consecutive seeds cover %d cells, want 15: %v", len(cells), cells)
	}
	for _, want := range []string{
		"speculative/none", "speculative/local", "speculative/global",
		"strong-eventual/none", "strong-eventual/local", "strong-eventual/global",
	} {
		if !cells[want] {
			t.Errorf("cycle 2 missing cell %s", want)
		}
	}
}

// TestCycleTwoSmoke runs consecutive seeds under the fifteen-cell cycle,
// exercising the speculative rollback and strong-eventual convergence
// contracts alongside the original nine cells.
func TestCycleTwoSmoke(t *testing.T) {
	n := 90
	if testing.Short() {
		n = 30
	}
	results := RunManyCycle(Seeds(1, n), 0, 2)
	var buf bytes.Buffer
	if failed := Report(&buf, results); failed > 0 {
		t.Errorf("%d cycle-2 schedules failed:\n%s", failed, buf.String())
	}
}

// TestReportFailureBlock asserts a failing result reprints its plan and
// the replay command, which is what turns a CI red into a local repro.
func TestReportFailureBlock(t *testing.T) {
	r := Result{
		Seed:       99,
		Cell:       "weak/global",
		Violations: []string{"example violation"},
		PlanText:   NewPlan(99).String(),
	}
	var buf bytes.Buffer
	if failed := Report(&buf, []Result{r}); failed != 1 {
		t.Fatalf("Report returned %d failures, want 1", failed)
	}
	out := buf.String()
	for _, want := range []string{
		"seed 99 FAILED",
		"violation: example violation",
		"reproduce: cudele-bench -chaos-replay 99",
		"fault plan:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportCycleTwoReplayCommand asserts a cycle-2 failure's replay
// command carries the -chaos-cycle flag — without it the seed would
// replay under the nine-cell mapping and exercise the wrong cell.
func TestReportCycleTwoReplayCommand(t *testing.T) {
	r := Result{
		Seed:       7,
		Cycle:      2,
		Cell:       NewPlanCycle(7, 2).Cell(),
		Violations: []string{"example violation"},
		PlanText:   NewPlanCycle(7, 2).String(),
	}
	var buf bytes.Buffer
	Report(&buf, []Result{r})
	if !strings.Contains(buf.String(), "reproduce: cudele-bench -chaos-cycle 2 -chaos-replay 7") {
		t.Errorf("cycle-2 report missing cycle-aware replay command:\n%s", buf.String())
	}
}

// TestFlightDumpOnFailure forces a violation and asserts the failed
// result carries a flight-recorder dump naming the daemons, recent ops,
// and the violation itself — the "last events before the breakage" block
// a -chaos-replay report shows.
func TestFlightDumpOnFailure(t *testing.T) {
	forceViolation = true
	defer func() { forceViolation = false }()
	res := Run(1)
	if res.Passed() {
		t.Fatal("forced violation did not fail the schedule")
	}
	if res.FlightDump == "" {
		t.Fatal("failed schedule has no flight dump")
	}
	for _, want := range []string{
		"[chaos]",   // the oracle's ring
		"[mds.0]",   // the MDS op ring
		"violation", // the violation event itself
		"forced violation (test hook) after op",
	} {
		if !strings.Contains(res.FlightDump, want) {
			t.Errorf("flight dump missing %q:\n%s", want, res.FlightDump)
		}
	}

	var buf bytes.Buffer
	Report(&buf, []Result{res})
	if !strings.Contains(buf.String(), "flight recorder (last events before the violation):") {
		t.Errorf("report missing flight-recorder block:\n%s", buf.String())
	}
}

// TestFlightDumpOnlyOnFailure asserts passing schedules carry no dump —
// the recorder is observation-only and its output appears exclusively in
// failure reports.
func TestFlightDumpOnlyOnFailure(t *testing.T) {
	res := Run(1)
	if !res.Passed() {
		t.Fatalf("seed 1 unexpectedly failed: %v", res.Violations)
	}
	if res.FlightDump != "" {
		t.Errorf("passing schedule has a flight dump:\n%s", res.FlightDump)
	}
}

// TestMergeDuringFreezeSeed pins cycle-1 seed 118, a weak/none schedule
// whose main subtree migrates 0→1 and back while transport faults slow
// the migration's control messages. Streamed merges into the subtree
// used to finish admission after the exporting rank had frozen it, then
// apply behind the export snapshot: their updates (and any directories
// they created) were pruned with the export and never reached the
// importer. Both handoffs must now commit with every merged update
// visible on the final owner.
func TestMergeDuringFreezeSeed(t *testing.T) {
	r := Run(118)
	if !r.Passed() {
		var buf bytes.Buffer
		Report(&buf, []Result{r})
		t.Fatalf("seed 118 failed:\n%s", buf.String())
	}
	if r.Migrations != 2 {
		t.Fatalf("seed 118 committed %d migrations, want 2", r.Migrations)
	}
}
