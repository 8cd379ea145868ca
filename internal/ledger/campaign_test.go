package ledger_test

// Campaign integration: the ledger's determinism and resume contract
// against the real matrix. The settled record — the bytes of
// record.json, not just the digest — must be identical at any worker
// count, under seeded chaos, and fork vs fresh boot; an interrupted
// campaign resumed from its journal must merge to the same bytes an
// uninterrupted run writes.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
)

// runLedgerCampaign mirrors the repro binary's -ledger flow: plan the
// delta against the store's latest compatible record, journal the
// rerun, grade equivalence when the merged record is clean, settle.
// When interruptAfter > 0 the campaign context is canceled after that
// many cells finish, simulating SIGINT mid-run.
func runLedgerCampaign(t *testing.T, dir string, workers int, seed int64, interruptAfter int32) *ledger.Record {
	t.Helper()
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	continueOnError := seed != 0
	cfg := ledger.CurrentConfig(seed, continueOnError)
	prev, err := store.LatestMatching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	delta := ledger.PlanDelta(prev, cfg)
	w, err := store.NewWriter(cfg, delta.Expected)
	if err != nil {
		t.Fatal(err)
	}
	if prev != nil && prev.RunID != w.RunID() {
		w.Import(delta.Reused)
	}

	ctx := context.Background()
	r := &campaign.Runner{Workers: workers, Observer: w, ContinueOnError: continueOnError}
	if seed != 0 {
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		r.Faults = plan
		defer plan.ReleaseAll()
	}
	if interruptAfter > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		r.Sched = &cancelAfter{n: interruptAfter, cancel: cancel}
	}

	_, runErr := r.RunCellRefs(ctx, delta.Rerun)
	if runErr != nil {
		if interruptAfter == 0 {
			t.Fatalf("workers=%d seed=%d: %v", workers, seed, runErr)
		}
		// The interrupted path: close flushes everything that settled.
		w.StripEquivalence()
		rec, _ := w.Close()
		return rec
	}
	if snap := w.Snapshot(); snap.Complete() && snap.Failed() == 0 {
		verdicts, eqErr := ledger.Equivalence(snap)
		if eqErr != nil {
			t.Fatalf("equivalence from record: %v", eqErr)
		}
		w.RecordEquivalence(verdicts)
	} else {
		w.StripEquivalence()
	}
	rec, err := w.Close()
	if err != nil {
		t.Fatalf("close ledger: %v", err)
	}
	return rec
}

// cancelAfter cancels the campaign context once n cells have finished.
type cancelAfter struct {
	n      int32
	done   atomic.Int32
	cancel context.CancelFunc
}

func (c *cancelAfter) BatchQueued([]string)              {}
func (c *cancelAfter) CellDispatched(string, int, int64) {}
func (c *cancelAfter) CellSettled(string, int, int64, int64, *telemetry.CellProfile, *campaign.CellError) {
	if c.done.Add(1) == c.n {
		c.cancel()
	}
}

// recordBytes reads the settled record.json a run wrote.
func recordBytes(t *testing.T, dir, runID string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, runID, "record.json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLedgerRecordDeterministic pins the settled record bytes across
// worker counts, with and without seeded chaos. Under chaos some cells
// fail; the record must still be byte-identical — failure class and
// message are part of the canonical outcome.
func TestLedgerRecordDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 7, 99} {
		ref := runLedgerCampaign(t, t.TempDir(), 1, seed, 0)
		refBytes := ""
		for _, workers := range []int{1, 4, 8} {
			dir := t.TempDir()
			rec := runLedgerCampaign(t, dir, workers, seed, 0)
			if rec.RunID != ref.RunID {
				t.Fatalf("seed=%d workers=%d: run ID %s, want %s", seed, workers, rec.RunID, ref.RunID)
			}
			got := recordBytes(t, dir, rec.RunID)
			if refBytes == "" {
				refBytes = got
				if err := rec.Verify(); err != nil {
					t.Fatalf("seed=%d: record fails verification: %v", seed, err)
				}
				if !rec.Complete() {
					t.Fatalf("seed=%d: record incomplete: %d/%d", seed, rec.Completed, rec.Cells)
				}
				if seed == 0 && rec.Failed() != 0 {
					t.Fatalf("clean run has %d failed cells", rec.Failed())
				}
				continue
			}
			if got != refBytes {
				t.Errorf("seed=%d: record bytes at workers=%d diverge from workers=1", seed, workers)
			}
		}
	}
}

// TestLedgerForkVsFreshIdentical compares the settled record between
// snapshot-fork and fresh-boot cell construction.
func TestLedgerForkVsFreshIdentical(t *testing.T) {
	was := campaign.SnapshotsEnabled()
	defer campaign.EnableSnapshots(was)

	campaign.EnableSnapshots(false)
	freshDir := t.TempDir()
	fresh := runLedgerCampaign(t, freshDir, 4, 0, 0)

	campaign.EnableSnapshots(true)
	forkDir := t.TempDir()
	fork := runLedgerCampaign(t, forkDir, 4, 0, 0)

	if a, b := recordBytes(t, freshDir, fresh.RunID), recordBytes(t, forkDir, fork.RunID); a != b {
		t.Error("fork record bytes diverge from fresh boot")
	}
}

// TestResumeAfterInterruptMergesByteIdentical interrupts a campaign
// mid-run, then resumes from the journal and checks the merged record
// and its graded equivalence are byte-identical to an uninterrupted
// run — and that the resume actually skipped the settled cells.
func TestResumeAfterInterruptMergesByteIdentical(t *testing.T) {
	refDir := t.TempDir()
	ref := runLedgerCampaign(t, refDir, 4, 0, 0)

	dir := t.TempDir()
	partial := runLedgerCampaign(t, dir, 4, 0, 10)
	if partial.Completed == 0 || partial.Completed >= partial.Cells {
		t.Fatalf("interrupt settled %d/%d cells, want a strict partial", partial.Completed, partial.Cells)
	}

	// The resume plan must reuse exactly the settled cells.
	cfg := ledger.CurrentConfig(0, false)
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := store.LatestMatching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := ledger.PlanDelta(prev, cfg)
	if len(d.Reused) != partial.Completed || len(d.Rerun) != partial.Cells-partial.Completed {
		t.Fatalf("resume plan reuses %d and reruns %d, want %d and %d",
			len(d.Reused), len(d.Rerun), partial.Completed, partial.Cells-partial.Completed)
	}

	merged := runLedgerCampaign(t, dir, 4, 0, 0)
	if merged.RunID != ref.RunID {
		t.Fatalf("merged run ID %s, want %s", merged.RunID, ref.RunID)
	}
	if a, b := recordBytes(t, refDir, ref.RunID), recordBytes(t, dir, merged.RunID); a != b {
		t.Error("merged record bytes diverge from the uninterrupted run")
	}
}

// TestRecordDerivedArtifacts checks the record rebuilds the campaign's
// downstream artifacts: matrix entries for every cell, a verifying
// coverage report with the full matrix, and a graded equivalence table.
func TestRecordDerivedArtifacts(t *testing.T) {
	dir := t.TempDir()
	rec := runLedgerCampaign(t, dir, 4, 0, 0)

	entries := rec.MatrixEntries()
	if len(entries) != rec.Completed {
		t.Fatalf("rebuilt %d matrix entries from %d cells", len(entries), rec.Completed)
	}
	verdicts, ok := rec.EquivalenceVerdicts()
	if !ok || len(verdicts) != rec.Completed/2 {
		t.Fatalf("equivalence: ok=%t verdicts=%d, want %d (one per injection cell)", ok, len(verdicts), rec.Completed/2)
	}
	for _, cv := range verdicts {
		if cv.Tier == "" || cv.Basis == "" {
			t.Errorf("ungraded verdict in record: %+v", cv)
		}
	}
	rep := rec.CoverageReport()
	if len(rep.Cells) != rec.Completed {
		t.Fatalf("coverage report rebuilt %d cells from %d", len(rep.Cells), rec.Completed)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("rebuilt coverage report fails verification: %v", err)
	}
}

// TestLiveCoverageMatchesRecord runs one matrix with a live coverage
// collector and a ledger writer side by side: the report the collector
// settles from in-memory maps must equal, field for field and digest
// included, the one the settled record rebuilds from its persisted
// edge lists.
func TestLiveCoverageMatchesRecord(t *testing.T) {
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ledger.CurrentConfig(0, false)
	delta := ledger.PlanDelta(nil, cfg)
	w, err := store.NewWriter(cfg, delta.Expected)
	if err != nil {
		t.Fatal(err)
	}
	r := &campaign.Runner{Workers: 4, Observer: w, Coverage: coverage.NewCollector()}
	if _, err := r.RunCellRefs(context.Background(), delta.Rerun); err != nil {
		t.Fatal(err)
	}
	rec, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	live, settled := r.Coverage.Report(), rec.CoverageReport()
	if len(live.Cells) != 102 {
		t.Fatalf("live report covers %d cells, want 102", len(live.Cells))
	}
	if !reflect.DeepEqual(live, settled) {
		t.Fatalf("live coverage report differs from the record's\nlive:   %s\nrecord: %s", live.Digest, settled.Digest)
	}
}

// baselineDigest is the record digest of the committed
// LEDGER_baseline.json.
const baselineDigest = "97ca9a17a52243dc"

// TestMatrixRecordMatchesBaseline pins the default matrix's settled
// record to the committed baseline: its digest and every byte of
// record.json, at one and four workers. `make ledger-diff` fails only
// on verdict flips and lost coverage edges, so a changed effect line
// or edge count would pass there; it fails here.
func TestMatrixRecordMatchesBaseline(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "LEDGER_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		rec := runLedgerCampaign(t, dir, workers, 0, 0)
		if rec.Digest != baselineDigest {
			t.Errorf("workers=%d: record digest %s, want the baseline's %s", workers, rec.Digest, baselineDigest)
		}
		if got := recordBytes(t, dir, rec.RunID); got != string(want) {
			t.Errorf("workers=%d: record.json differs from LEDGER_baseline.json", workers)
		}
	}
}

// TestLiveEquivalenceMatchesBaseline pins the live grader to the
// committed record: tracediff.MatrixEquivalence over a freshly run
// profiled matrix must yield exactly the verdicts LEDGER_baseline.json
// carries, at one and four workers.
func TestLiveEquivalenceMatchesBaseline(t *testing.T) {
	rec, err := ledger.LoadRecordFile(filepath.Join("..", "..", "LEDGER_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, ok := rec.EquivalenceVerdicts()
	if !ok || len(want) == 0 {
		t.Fatal("baseline record carries no equivalence verdicts")
	}
	for _, workers := range []int{1, 4} {
		r := &campaign.Runner{Workers: workers, Telemetry: telemetry.NewRegistry()}
		entries, err := r.RunMatrixContext(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := tracediff.MatrixEquivalence(entries)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: live verdicts differ from the baseline record's", workers)
		}
	}
}

// TestJournalLoadDeterministicAcrossWorkers checks what the journal
// guarantees. Its lines land in completion order, so the journal
// itself differs between worker counts; the record Store.Load settles
// from it must not.
func TestJournalLoadDeterministicAcrossWorkers(t *testing.T) {
	load := func(workers int) []byte {
		t.Helper()
		dir := t.TempDir()
		id := runLedgerCampaign(t, dir, workers, 0, 0).RunID
		store, err := ledger.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := store.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Verify(); err != nil {
			t.Fatalf("workers=%d: loaded record fails verification: %v", workers, err)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if one, four := load(1), load(4); !bytes.Equal(one, four) {
		t.Error("the record loaded from a 4-worker journal differs from the 1-worker one")
	}
}
