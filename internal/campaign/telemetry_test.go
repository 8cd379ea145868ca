package campaign_test

// The telemetry determinism contract: a cell's counters are a function
// of the cell alone — fresh environment, single-goroutine recorder —
// so per-cell counter snapshots are identical at any worker count.
// Wall time is the one explicitly nondeterministic field.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// matrixProfiles runs the matrix under a profiling runner and returns
// cell -> counters.
func matrixProfiles(t *testing.T, workers int) map[string][]telemetry.CounterValue {
	t.Helper()
	r := &campaign.Runner{Workers: workers, Telemetry: telemetry.NewRegistry()}
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out := make(map[string][]telemetry.CounterValue, len(entries))
	for _, e := range entries {
		p := e.Result.Profile
		if p == nil {
			t.Fatalf("workers=%d: %s/%s/%s has no profile", workers, e.Version, e.UseCase, e.Mode)
		}
		if p.Cell == "" || len(p.Counters) == 0 {
			t.Fatalf("workers=%d: profile %+v missing cell or counters", workers, p)
		}
		out[p.Cell] = p.Counters
	}
	return out
}

func TestPerCellCountersDeterministicAcrossWorkerCounts(t *testing.T) {
	base := matrixProfiles(t, 1)
	if len(base) != 102 {
		t.Fatalf("matrix produced %d distinct cells, want 102", len(base))
	}
	for _, w := range []int{4, 8} {
		got := matrixProfiles(t, w)
		for cellID, counters := range base {
			if !reflect.DeepEqual(got[cellID], counters) {
				t.Errorf("workers=%d: %s counters diverge:\n serial:  %v\n pool:    %v",
					w, cellID, counters, got[cellID])
			}
		}
	}
}

// TestMatrixTraceCoversEveryCell checks the acceptance contract of the
// JSONL trace: every campaign cell contributes hypercall and page-type
// events, injection cells contribute injector events, and every cell
// is closed by a cell_end summary.
func TestMatrixTraceCoversEveryCell(t *testing.T) {
	r := &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry()}
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]*telemetry.CellProfile, 0, len(entries))
	for _, e := range entries {
		profiles = append(profiles, e.Result.Profile)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	records, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]map[string]int{}
	ended := map[string]bool{}
	for _, rec := range records {
		if rec.Kind == telemetry.CellEndKind {
			ended[rec.Cell] = true
			continue
		}
		if kinds[rec.Cell] == nil {
			kinds[rec.Cell] = map[string]int{}
		}
		kinds[rec.Cell][rec.Kind]++
	}
	if len(kinds) != 102 {
		t.Fatalf("trace covers %d cells, want 102", len(kinds))
	}
	for _, e := range entries {
		cellID := e.Result.Profile.Cell
		k := kinds[cellID]
		if !ended[cellID] {
			t.Errorf("%s: no cell_end record", cellID)
		}
		for _, want := range []string{"hypercall_enter", "hypercall_exit", "page_type_get"} {
			if k[want] == 0 {
				t.Errorf("%s: no %s events", cellID, want)
			}
		}
		if e.Mode == campaign.ModeInjection && k["injector_op"] == 0 {
			t.Errorf("%s: injection cell has no injector_op events", cellID)
		}
	}
}

// TestTraceEventOrderDeterministic pins the stronger trace contract:
// not just per-cell counters but the full event stream is identical at
// any worker count (wall time excluded), so two traces of the same
// campaign can be diffed line by line. This is what makes a trace
// usable as a regression artifact for a diverging Table III cell.
func TestTraceEventOrderDeterministic(t *testing.T) {
	trace := func(workers int) []telemetry.TraceRecord {
		r := &campaign.Runner{Workers: workers, Telemetry: telemetry.NewRegistry()}
		entries, err := r.RunMatrixContext(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		profiles := make([]*telemetry.CellProfile, 0, len(entries))
		for _, e := range entries {
			profiles = append(profiles, e.Result.Profile)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteTrace(&buf, profiles); err != nil {
			t.Fatal(err)
		}
		records, err := telemetry.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range records {
			records[i].WallNS = 0 // the one explicitly nondeterministic field
		}
		return records
	}
	serial, pooled := trace(1), trace(4)
	if len(serial) != len(pooled) {
		t.Fatalf("trace lengths diverge: serial %d, pooled %d", len(serial), len(pooled))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], pooled[i]) {
			t.Fatalf("record %d diverges:\n serial: %+v\n pooled: %+v", i, serial[i], pooled[i])
		}
	}
}

// TestExportCarriesTelemetryOnlyWhenProfiled checks the artifact
// contract both ways: a profiling runner's JSON export includes
// per-run counters, and a plain runner's export has no telemetry keys
// (so pre-telemetry artifacts remain byte-comparable).
func TestExportCarriesTelemetryOnlyWhenProfiled(t *testing.T) {
	plain := exportMatrix(t, &campaign.Runner{Workers: 4})
	profiled := exportMatrix(t, &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry()})
	if bytes.Contains(plain, []byte(`"counters"`)) || bytes.Contains(plain, []byte(`"wall_ns"`)) {
		t.Error("unprofiled export leaks telemetry fields")
	}
	var artifact struct {
		Runs []struct {
			Version  string                   `json:"version"`
			UseCase  string                   `json:"use_case"`
			WallNS   int64                    `json:"wall_ns"`
			Counters []telemetry.CounterValue `json:"counters"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(profiled, &artifact); err != nil {
		t.Fatal(err)
	}
	if len(artifact.Runs) != 102 {
		t.Fatalf("profiled export has %d runs, want 102", len(artifact.Runs))
	}
	for _, run := range artifact.Runs {
		if run.WallNS <= 0 || len(run.Counters) == 0 {
			t.Errorf("%s/%s: missing wall_ns or counters in profiled export", run.Version, run.UseCase)
		}
	}
}
