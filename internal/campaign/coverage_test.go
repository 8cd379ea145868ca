package campaign_test

// The coverage differential suite: the campaign's coverage report —
// per-cell edge maps, union membership, first-witness attribution and
// the canonical digest — must be byte-identical at any worker count,
// under seeded chaos, and whether cells boot fresh or fork from the
// snapshot. This is the determinism the coverage-guided fuzzer
// (ROADMAP item 3) will rely on: a digest change means behaviour
// changed, never scheduling.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/faults"
)

// matrixCoverage runs the full default matrix with coverage enabled
// and returns the settled report.
func matrixCoverage(t *testing.T, workers int, seed int64) *coverage.Report {
	t.Helper()
	col := coverage.NewCollector()
	r := &campaign.Runner{Workers: workers, Coverage: col}
	var plan *faults.Plan
	if seed >= 0 {
		plan = faults.NewPlan(seed, faults.DefaultDensity)
		r.Faults = plan
		r.ContinueOnError = true
	}
	if _, err := r.RunMatrixContext(context.Background()); err != nil {
		t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
	}
	if plan != nil {
		plan.ReleaseAll()
	}
	return col.Report()
}

// TestCoverageDeterministicAcrossWorkers pins the canonical coverage
// report — not just the digest — across worker counts and chaos seeds.
func TestCoverageDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{-1, 7, 99} { // -1 = no fault plan
		want := matrixCoverage(t, 1, seed).Canonical()
		for _, w := range []int{4, 8} {
			got := matrixCoverage(t, w, seed).Canonical()
			if got != want {
				t.Errorf("seed=%d: coverage at workers=%d diverges from workers=1\n%s",
					seed, w, firstDiffLines(want, got))
			}
		}
	}
}

// TestCoverageForkVsFreshIdentical compares the canonical coverage
// report between snapshot-fork and fresh-boot cell construction.
func TestCoverageForkVsFreshIdentical(t *testing.T) {
	set := withSnapshots(t)
	for _, w := range []int{1, 4} {
		set(false)
		fresh := matrixCoverage(t, w, -1)
		set(true)
		fork := matrixCoverage(t, w, -1)
		if fresh.Canonical() != fork.Canonical() {
			t.Errorf("workers=%d: fork coverage diverges from fresh\n%s",
				w, firstDiffLines(fresh.Canonical(), fork.Canonical()))
		}
	}
}

// TestCoverageReportShape checks the structural invariants of the
// settled report: every matrix cell present in dispatch order, new-edge
// attribution summing to the union, digests verifying, and a JSON
// round trip preserving them.
func TestCoverageReportShape(t *testing.T) {
	rep := matrixCoverage(t, 4, -1)
	if len(rep.Cells) != 102 {
		t.Fatalf("expected 102 cells, got %d", len(rep.Cells))
	}
	newSum := 0
	for _, c := range rep.Cells {
		if len(c.Edges) == 0 {
			t.Errorf("cell %s: empty coverage", c.Cell)
		}
		newSum += c.NewEdges
	}
	if newSum != rep.TotalEdges {
		t.Errorf("per-cell new edges sum to %d, union has %d", newSum, rep.TotalEdges)
	}
	if rep.Cells[0].NewEdges != len(rep.Cells[0].Edges) {
		t.Errorf("first cell must witness all its edges as new: new=%d edges=%d",
			rep.Cells[0].NewEdges, len(rep.Cells[0].Edges))
	}
	for _, u := range rep.Union {
		if u.FirstCell == "" || u.Cells == 0 || u.Count == 0 {
			t.Errorf("union edge %s/%s missing attribution: %+v", u.Family, u.Name, u)
		}
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("report fails self-verification: %v", err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back coverage.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := back.Verify(); err != nil {
		t.Errorf("report fails verification after JSON round trip: %v", err)
	}
	if back.Canonical() != rep.Canonical() {
		t.Errorf("canonical rendering changed across JSON round trip")
	}
}

// minSharedEdgeFraction is the pinned RQ1 floor: the exploit and
// injection variants of every scenario cell must share at least this
// fraction of their combined edge set (Jaccard index). The observed
// minimum across the matrix sits comfortably above it; a drop below
// the pin means injection stopped exercising the exploit's hypervisor
// paths and the RQ1 claim needs re-examination.
const minSharedEdgeFraction = 0.50

// TestCoverageExploitVsInjectionShared pins the RQ1 signal for all 51
// scenario cells (17 use cases across their applicable versions).
func TestCoverageExploitVsInjectionShared(t *testing.T) {
	rep := matrixCoverage(t, 4, -1)
	type key struct{ version, useCase string }
	edges := make(map[key]map[string]map[string]bool) // key → mode → edge set
	for _, c := range rep.Cells {
		parts := strings.Split(c.Cell, "/")
		if len(parts) != 3 {
			t.Fatalf("unexpected cell id %q", c.Cell)
		}
		k := key{parts[0], parts[1]}
		if edges[k] == nil {
			edges[k] = make(map[string]map[string]bool)
		}
		set := make(map[string]bool, len(c.Edges))
		for _, e := range c.Edges {
			set[string(e.Family)+"/"+e.Name] = true
		}
		edges[k][parts[2]] = set
	}
	if len(edges) != 51 {
		t.Fatalf("expected 51 scenario cells, got %d", len(edges))
	}
	for k, modes := range edges {
		ex, in := modes["exploit"], modes["injection"]
		if ex == nil || in == nil {
			t.Errorf("%s/%s: missing a mode variant", k.version, k.useCase)
			continue
		}
		shared := 0
		for e := range ex {
			if in[e] {
				shared++
			}
		}
		union := len(ex) + len(in) - shared
		frac := float64(shared) / float64(union)
		if frac < minSharedEdgeFraction {
			t.Errorf("%s/%s: exploit and injection share %d/%d edges (%.2f), below the %.2f pin",
				k.version, k.useCase, shared, union, frac, minSharedEdgeFraction)
		}
	}
}
