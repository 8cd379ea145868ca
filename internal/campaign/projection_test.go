package campaign_test

// The projections' error rules, on hand-built entries with no campaign
// run: a projection fails on a missing or failed cell it reads, under
// ContinueOnError too, and ignores failures outside its cell set.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/monitor"
)

// handBuilt returns a successful entry for every matrix cell.
func handBuilt() []campaign.MatrixEntry {
	refs := campaign.MatrixCells(nil)
	entries := make([]campaign.MatrixEntry, len(refs))
	for i, c := range refs {
		entries[i] = campaign.MatrixEntry{Version: c.Version, UseCase: c.UseCase, Mode: c.Mode, Result: &campaign.RunResult{
			Outcome: &exploits.Outcome{UseCase: c.UseCase, Mode: string(c.Mode), Version: c.Version},
			Verdict: &monitor.Verdict{ErroneousState: true, SecurityViolation: true},
		}}
	}
	return entries
}

// fail marks the named cell failed, as a ContinueOnError campaign does.
func fail(t *testing.T, entries []campaign.MatrixEntry, cell string) []campaign.MatrixEntry {
	t.Helper()
	for i, e := range entries {
		if e.Version+"/"+e.UseCase+"/"+string(e.Mode) == cell {
			entries[i].Result = nil
			entries[i].Err = &campaign.CellError{Cell: cell, Class: campaign.FailPanic, Message: "boom"}
			return entries
		}
	}
	t.Fatalf("no cell %s", cell)
	return nil
}

// drop removes the named cell, as a campaign that never scheduled it.
func drop(t *testing.T, entries []campaign.MatrixEntry, cell string) []campaign.MatrixEntry {
	t.Helper()
	for i, e := range entries {
		if e.Version+"/"+e.UseCase+"/"+string(e.Mode) == cell {
			return append(entries[:i:i], entries[i+1:]...)
		}
	}
	t.Fatalf("no cell %s", cell)
	return nil
}

// projections runs each projection over entries and reports its error.
var projections = map[string]func([]campaign.MatrixEntry) error{
	"fig4":   func(e []campaign.MatrixEntry) error { _, err := campaign.Fig4(e); return err },
	"table3": func(e []campaign.MatrixEntry) error { _, err := campaign.Table3(e); return err },
	"scores": func(e []campaign.MatrixEntry) error { _, err := campaign.Scores(e); return err },
}

func TestProjectionsFailOnNeededCells(t *testing.T) {
	for _, tc := range []struct {
		projection, cell, want string
	}{
		{"fig4", "4.6/XSA-148-priv/exploit", "campaign: fig4 XSA-148-priv exploit: "},
		{"fig4", "4.6/MX-idt-gp/injection", "campaign: fig4 MX-idt-gp injection: "},
		{"table3", "4.13/XSA-212-priv/injection", "campaign: table3 XSA-212-priv on 4.13: "},
		{"scores", "4.6/XSA-182-test/injection", "campaign: benchmark XSA-182-test on 4.6: "},
	} {
		project := projections[tc.projection]
		err := project(fail(t, handBuilt(), tc.cell))
		if err == nil || err.Error() != tc.want+"panic: boom" {
			t.Errorf("%s with %s failed: err = %v, want %q", tc.projection, tc.cell, err, tc.want+"panic: boom")
		}
		err = project(drop(t, handBuilt(), tc.cell))
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s without %s: err = %v, want prefix %q", tc.projection, tc.cell, err, tc.want)
		}
	}
}

func TestProjectionsIgnoreCellsOutsideTheirSet(t *testing.T) {
	for _, tc := range []struct {
		cell    string
		passing []string
	}{
		{"4.6/XSA-148-priv/exploit", []string{"table3", "scores"}},
		{"4.8/XSA-148-priv/injection", []string{"fig4"}},
		{"4.13/XSA-148-priv/exploit", []string{"fig4", "table3", "scores"}},
	} {
		for _, name := range tc.passing {
			if err := projections[name](fail(t, handBuilt(), tc.cell)); err != nil {
				t.Errorf("%s with %s failed: %v", name, tc.cell, err)
			}
			if err := projections[name](drop(t, handBuilt(), tc.cell)); err != nil {
				t.Errorf("%s without %s: %v", name, tc.cell, err)
			}
		}
	}
}

// A registry subset projects on its own: only the use cases the entries
// mention are needed.
func TestProjectionsScopeToMentionedUseCases(t *testing.T) {
	var subset []campaign.MatrixEntry
	for _, e := range handBuilt() {
		if e.UseCase == "XSA-182-test" {
			subset = append(subset, e)
		}
	}
	rows, err := campaign.Table3(subset)
	if err != nil || len(rows) != 1 || len(rows[0].Cells) != 2 {
		t.Errorf("Table3 over one use case = %+v, %v; want one row of two cells", rows, err)
	}
	scores, err := campaign.Scores(subset)
	if err != nil || len(scores) != 3 || scores[0].StatesInjected != 1 {
		t.Errorf("Scores over one use case = %+v, %v; want three versions of one state each", scores, err)
	}
}

func TestExportKeepsCellErrorAndOmitsScores(t *testing.T) {
	const cell = "4.8/XSA-212-crash/injection"
	entries := fail(t, handBuilt(), cell)
	if err := campaign.Export(&bytes.Buffer{}, entries, 0, false); err == nil ||
		!strings.HasPrefix(err.Error(), "campaign: benchmark XSA-212-crash on 4.8: ") {
		t.Errorf("default-mode export with a failed cell: err = %v", err)
	}
	var buf bytes.Buffer
	if err := campaign.Export(&buf, entries, 7, true); err != nil {
		t.Fatalf("continue-on-error export: %v", err)
	}
	var artifact campaign.ExportedCampaign
	if err := json.Unmarshal(buf.Bytes(), &artifact); err != nil {
		t.Fatal(err)
	}
	if artifact.Scores != nil {
		t.Errorf("scores = %+v, want them omitted", artifact.Scores)
	}
	if len(artifact.Runs) != 102 || artifact.FaultPlanSeed != 7 || !artifact.ContinueOnError {
		t.Errorf("artifact: %d runs, seed %d, continue_on_error %v", len(artifact.Runs), artifact.FaultPlanSeed, artifact.ContinueOnError)
	}
	failed := 0
	for _, r := range artifact.Runs {
		if r.Error != nil {
			failed++
			if r.Error.Cell != cell || r.Error.Class != campaign.FailPanic {
				t.Errorf("error record = %+v", r.Error)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d runs carry an error record, want 1", failed)
	}
	// A failure outside the scores' cells keeps them.
	buf.Reset()
	if err := campaign.Export(&buf, fail(t, handBuilt(), "4.8/XSA-212-crash/exploit"), 0, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"scores"`) {
		t.Error("export dropped scores over a failed exploit cell")
	}
}
