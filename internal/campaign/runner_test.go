package campaign_test

// The parallel campaign engine's contract: any worker count produces
// results identical to the serial path, because every cell runs in its
// own fresh environment and results are reassembled in cell order. The
// tests compare the *rendered* artifacts (report strings and the JSON
// export), which is exactly what the paper-reproduction pipeline
// consumes — byte equality there is the whole guarantee.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
)

var workerCounts = []int{1, 4, 8}

// runMatrix runs the full campaign on r.
func runMatrix(t *testing.T, r *campaign.Runner) []campaign.MatrixEntry {
	t.Helper()
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("Workers=%d RunMatrixContext: %v", r.Workers, err)
	}
	return entries
}

// exportMatrix runs the full campaign on r and returns its JSON
// artifact.
func exportMatrix(t *testing.T, r *campaign.Runner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := campaign.Export(&buf, runMatrix(t, r), r.Faults.Seed(), r.ContinueOnError); err != nil {
		t.Fatalf("Workers=%d Export: %v", r.Workers, err)
	}
	return buf.Bytes()
}

// fig4 runs the full campaign on r and projects Figure 4.
func fig4(t *testing.T, r *campaign.Runner) []campaign.Fig4Row {
	t.Helper()
	rows, err := campaign.Fig4(runMatrix(t, r))
	if err != nil {
		t.Fatalf("Workers=%d Fig4: %v", r.Workers, err)
	}
	return rows
}

func TestRunnerMatrixDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := report.Matrix(runMatrix(t, &campaign.Runner{Workers: 1}))
	for _, w := range workerCounts {
		if got := report.Matrix(runMatrix(t, &campaign.Runner{Workers: w})); got != serial {
			t.Errorf("Workers=%d matrix differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

func TestRunnerTable3DeterministicAcrossWorkerCounts(t *testing.T) {
	versions := []string{"4.8", "4.13"}
	table := func(w int) string {
		t.Helper()
		r := &campaign.Runner{Workers: w}
		rows, err := campaign.Table3(runMatrix(t, r))
		if err != nil {
			t.Fatalf("Workers=%d Table3: %v", w, err)
		}
		return report.TableIII(rows, versions)
	}
	serial := table(1)
	for _, w := range workerCounts {
		if got := table(w); got != serial {
			t.Errorf("Workers=%d Table III differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

func TestRunnerFig4DeterministicAcrossWorkerCounts(t *testing.T) {
	serial := report.Fig4(fig4(t, &campaign.Runner{Workers: 1}))
	for _, w := range workerCounts {
		if got := report.Fig4(fig4(t, &campaign.Runner{Workers: w})); got != serial {
			t.Errorf("Workers=%d Fig. 4 differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

func TestRunnerExportMatrixDeterministic(t *testing.T) {
	serial := exportMatrix(t, &campaign.Runner{Workers: 1})
	if parallel := exportMatrix(t, &campaign.Runner{Workers: 6}); !bytes.Equal(serial, parallel) {
		t.Error("parallel JSON export differs from serial")
	}
}

func TestRunnerSecurityBenchmarkDeterministic(t *testing.T) {
	scores := func(w int) []campaign.Score {
		t.Helper()
		s, err := campaign.Scores(runMatrix(t, &campaign.Runner{Workers: w}))
		if err != nil {
			t.Fatalf("Workers=%d Scores: %v", w, err)
		}
		return s
	}
	serial, parallel := scores(1), scores(4)
	if len(serial) != len(parallel) {
		t.Fatalf("score count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("score %d: serial %v, parallel %v", i, serial[i], parallel[i])
		}
	}
}

// The engine must surface a cell's failure with the same error text the
// serial loops used, picking the first failing cell in cell order no
// matter which worker hit it.
func TestRunnerUnknownUseCaseError(t *testing.T) {
	for _, w := range []int{1, 4} {
		_, err := campaign.Run(campaign.Table3Versions()[0], "XSA-0-bogus", campaign.ModeInjection)
		if err == nil {
			t.Fatalf("Workers=%d: run of unknown use case succeeded", w)
		}
		if !strings.Contains(err.Error(), `unknown use case "XSA-0-bogus"`) {
			t.Errorf("Workers=%d: error = %v, want unknown-use-case text", w, err)
		}
	}
}

// A zero-value Runner must resolve to a positive pool size.
func TestRunnerDefaultWorkers(t *testing.T) {
	if rows := fig4(t, &campaign.Runner{}); len(rows) != 17 {
		t.Errorf("got %d Fig. 4 rows, want 17", len(rows))
	}
}

// A negative Workers value clamps to the serial path instead of
// surprising a library caller with a fan-out (the CLI rejects negatives
// before they get here). The output must match the serial run exactly.
func TestRunnerNegativeWorkersClampToSerial(t *testing.T) {
	serial := fig4(t, &campaign.Runner{Workers: 1})
	neg := fig4(t, &campaign.Runner{Workers: -3})
	if got, want := report.Fig4(neg), report.Fig4(serial); got != want {
		t.Errorf("Workers=-3 output differs from serial:\n%s\nvs\n%s", got, want)
	}
}
