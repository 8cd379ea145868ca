package obs

// Route-level contract of the observability server: status codes,
// content types, and error bodies for every endpoint, including the
// awkward states — scraped before the first batch, optional collectors
// absent, unknown paths.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/buildinfo"
	"repro/internal/coverage"
	"repro/internal/events"
	"repro/internal/telemetry"
)

// TestRoutesAndContentTypes walks every route on a freshly started
// server — no batch announced, no optional collectors installed.
func TestRoutesAndContentTypes(t *testing.T) {
	srv := NewServer(telemetry.NewRegistry())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	// /cells before the first batch: an empty JSON list, not null and
	// not an error — a dashboard polling from t=0 must parse cleanly.
	status, ctype, body := get(t, base+"/cells")
	if status != 200 || !strings.Contains(ctype, "application/json") {
		t.Errorf("/cells: status %d, content type %q", status, ctype)
	}
	var cells []events.CellState
	if err := json.Unmarshal([]byte(body), &cells); err != nil {
		t.Errorf("/cells before first batch is not a JSON list: %v\n%s", err, body)
	}
	if len(cells) != 0 {
		t.Errorf("/cells before first batch = %v, want empty", cells)
	}
	if !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Errorf("/cells before first batch = %q, want a JSON array (not null)", body)
	}

	// /spans without a collector: 404 naming the flag that enables it.
	status, _, body = get(t, base+"/spans")
	if status != 404 || !strings.Contains(body, "-spans") {
		t.Errorf("/spans disabled: status %d body %q, want 404 naming -spans", status, body)
	}

	// /coverage without a collector: same shape.
	status, _, body = get(t, base+"/coverage")
	if status != 404 || !strings.Contains(body, "-coverage") {
		t.Errorf("/coverage disabled: status %d body %q, want 404 naming -coverage", status, body)
	}

	// Unknown route: 404 from the mux.
	if status, _, _ = get(t, base+"/nope"); status != 404 {
		t.Errorf("/nope: status %d, want 404", status)
	}

	// /healthz: JSON liveness with the build identity.
	status, ctype, body = get(t, base+"/healthz")
	if status != 200 || !strings.Contains(ctype, "application/json") {
		t.Errorf("/healthz: status %d, content type %q", status, ctype)
	}
	var hi HealthInfo
	if err := json.Unmarshal([]byte(body), &hi); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if hi.Status != "ok" || hi.Version != buildinfo.Version || hi.GoVersion == "" {
		t.Errorf("/healthz = %+v, want status ok with build identity", hi)
	}

	// /metrics: Prometheus text exposition carrying the build gauge
	// even when no cell has run yet.
	status, ctype, body = get(t, base+"/metrics")
	if status != 200 || !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics: status %d, content type %q", status, ctype)
	}
	if !strings.Contains(body, `repro_build_info{version="`+buildinfo.Version+`"`) {
		t.Errorf("/metrics missing repro_build_info gauge:\n%s", body)
	}
	if strings.Contains(body, "repro_coverage_edges_total") {
		t.Errorf("/metrics exposes coverage series without a collector:\n%s", body)
	}
}

// TestCoverageEndpoint installs a coverage collector, feeds it one
// cell, and checks /coverage serves the live report and /metrics gains
// the per-family edge gauge.
func TestCoverageEndpoint(t *testing.T) {
	srv := NewServer(telemetry.NewRegistry())
	col := coverage.NewCollector()
	srv.SetCoverage(col)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	m := coverage.NewMap()
	m.Hypercall(1, "mmu_update", false)
	m.GrantOp("map")
	col.StartBatch([]string{"4.6/x/exploit"})
	col.FinishCell("4.6/x/exploit", m)

	status, ctype, body := get(t, base+"/coverage")
	if status != 200 || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/coverage: status %d, content type %q", status, ctype)
	}
	var rep coverage.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/coverage is not JSON: %v\n%s", err, body)
	}
	if rep.TotalEdges != 2 || len(rep.Cells) != 1 {
		t.Errorf("/coverage report = %d edges across %d cells, want 2 across 1", rep.TotalEdges, len(rep.Cells))
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("/coverage report fails self-verification: %v", err)
	}

	_, _, metrics := get(t, base+"/metrics")
	for _, want := range []string{
		`repro_coverage_edges_total{family="hypercall"} 1`,
		`repro_coverage_edges_total{family="grant"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}
