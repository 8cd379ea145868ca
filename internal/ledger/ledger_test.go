package ledger_test

// Unit contract of the run ledger: content-addressed identity,
// canonical settling, self-verification, journal truncated-tail
// recovery, delta planning, and the regression diff — everything below
// the campaign integration layer.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/ledger"
	"repro/internal/span"
)

// testConfig is a small fixed-identity config for unit tests; the
// version order is deliberately non-lexicographic (4.13 < "4.6" as a
// string) so dispatch-order sorting is actually exercised.
func testConfig() ledger.Config {
	return ledger.Config{
		RegistryDigest: "0123456789abcdef",
		Versions:       []string{"4.6", "4.8", "4.13"},
		Seed:           0,
		BuildVersion:   "test",
	}
}

func entry(version, scenario, mode string, wallNS int64) *ledger.Entry {
	return &ledger.Entry{
		Scenario: scenario,
		Version:  version,
		Mode:     mode,
		Verdict:  &ledger.VerdictRecord{ErroneousState: true, SecurityViolation: true},
		WallNS:   wallNS,
	}
}

func TestRunIDStableAndSensitive(t *testing.T) {
	base := testConfig()
	if base.RunID() != testConfig().RunID() {
		t.Fatal("identical configs must share a run ID")
	}
	seen := map[string]string{base.RunID(): "base"}
	for name, mutate := range map[string]func(*ledger.Config){
		"seed":     func(c *ledger.Config) { c.Seed = 7 },
		"registry": func(c *ledger.Config) { c.RegistryDigest = "fedcba9876543210" },
		"versions": func(c *ledger.Config) { c.Versions = c.Versions[:2] },
		"continue": func(c *ledger.Config) { c.ContinueOnError = true },
		"build":    func(c *ledger.Config) { c.BuildVersion = "other" },
	} {
		c := testConfig()
		mutate(&c)
		id := c.RunID()
		if prior, dup := seen[id]; dup {
			t.Errorf("mutating %s collides with %s: run ID %s", name, prior, id)
		}
		seen[id] = name
	}
}

func TestCompatibleExemptsRegistryOnly(t *testing.T) {
	base := testConfig()
	drift := testConfig()
	drift.RegistryDigest = "fedcba9876543210"
	if !drift.Compatible(base) {
		t.Error("registry drift must stay compatible (delta reruns patch corpus growth)")
	}
	for name, mutate := range map[string]func(*ledger.Config){
		"seed":     func(c *ledger.Config) { c.Seed = 7 },
		"versions": func(c *ledger.Config) { c.Versions = c.Versions[:2] },
		"continue": func(c *ledger.Config) { c.ContinueOnError = true },
		"build":    func(c *ledger.Config) { c.BuildVersion = "other" },
	} {
		c := testConfig()
		mutate(&c)
		if c.Compatible(base) {
			t.Errorf("%s mismatch must be incompatible", name)
		}
	}
}

// TestSettleCanonicalForm pins the settle semantics: canceled entries
// dropped, wall time zeroed, dispatch order imposed regardless of
// arrival order, and the digest verifying.
func TestSettleCanonicalForm(t *testing.T) {
	cfg := testConfig()
	run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, CreatedUnixNS: 12345, Cells: 4}
	entries := []*ledger.Entry{
		entry("4.13", "XSA-212-crash", "injection", 900),
		entry("4.6", "XSA-212-crash", "exploit", 100),
		{Scenario: "XSA-212-crash", Version: "4.8", Mode: "exploit",
			Error: &campaign.CellError{Cell: "4.8/XSA-212-crash/exploit", Class: campaign.FailCanceled, Message: "interrupted"}},
		entry("4.6", "XSA-212-crash", "injection", 200),
	}
	rec := ledger.Settle(run, entries)

	if rec.Completed != 3 {
		t.Fatalf("settled %d cells, want 3 (canceled dropped)", rec.Completed)
	}
	order := make([]string, len(rec.Entries))
	for i, e := range rec.Entries {
		if e.WallNS != 0 {
			t.Errorf("entry %s keeps wall time %d in canonical record", e.Key(), e.WallNS)
		}
		order[i] = e.Version + "/" + e.Mode
	}
	want := []string{"4.6/exploit", "4.6/injection", "4.13/injection"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	if entries[0].WallNS != 900 {
		t.Error("Settle must not mutate the caller's entries")
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("settled record fails verification: %v", err)
	}
	if got := ledger.Settle(run, entries).Digest; got != rec.Digest {
		t.Errorf("settling twice gives digests %s and %s", rec.Digest, got)
	}
}

func TestRecordFileRoundTripAndTamperDetection(t *testing.T) {
	cfg := testConfig()
	run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: 1}
	rec := ledger.Settle(run, []*ledger.Entry{entry("4.6", "XSA-212-crash", "exploit", 0)})
	path := filepath.Join(t.TempDir(), "record.json")
	if err := ledger.WriteRecordFile(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ledger.LoadRecordFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Canonical() != rec.Canonical() {
		t.Error("canonical form changed across the file round trip")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"erroneous_state": true`, `"erroneous_state": false`, 1)
	if tampered == string(data) {
		t.Fatal("tamper substitution did not apply")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.LoadRecordFile(path); err == nil {
		t.Error("hand-edited record must fail verification")
	}
}

// TestJournalLastWinsAndCrashSafety corrupts a journal the ways a crash
// can: duplicate keys (a resumed re-execution), a garbage line, and a
// truncated final line. Load must settle last-wins and skip the damage.
func TestJournalLastWinsAndCrashSafety(t *testing.T) {
	dir := t.TempDir()
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	w, err := store.NewWriter(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	stale := entry("4.6", "XSA-212-crash", "exploit", 1)
	stale.Verdict.Handled = true
	fresh := entry("4.6", "XSA-212-crash", "exploit", 2)
	other := entry("4.6", "XSA-212-crash", "injection", 3)
	w.Import([]*ledger.Entry{stale, fresh, other})
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(store.RunDir(cfg.RunID()), "cells.jsonl")
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n{\"scenario\":\"XSA-212-cra"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := store.Load(cfg.RunID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed != 2 {
		t.Fatalf("settled %d cells, want 2 (last-wins dedupe, damage skipped)", rec.Completed)
	}
	e := rec.EntryByKey(ledger.Key{Scenario: "XSA-212-crash", Version: "4.6", Mode: "exploit"})
	if e == nil || e.Verdict.Handled {
		t.Errorf("stale journal entry survived dedupe: %+v", e)
	}
}

func TestStoreRunsNewestFirst(t *testing.T) {
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := testConfig()
		cfg.Seed = seed
		w, err := store.NewWriter(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := store.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("store lists %d runs, want 3", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i-1].CreatedUnixNS < runs[i].CreatedUnixNS {
			t.Errorf("runs not newest-first: %d before %d", runs[i-1].CreatedUnixNS, runs[i].CreatedUnixNS)
		}
	}
	latest, err := store.LatestMatching(func() ledger.Config { c := testConfig(); c.Seed = 2; return c }())
	if err != nil || latest == nil {
		t.Fatalf("LatestMatching(seed=2) = %v, %v", latest, err)
	}
	none, err := store.LatestMatching(func() ledger.Config { c := testConfig(); c.Seed = 99; return c }())
	if err != nil || none != nil {
		t.Errorf("LatestMatching(seed=99) = %v, %v, want nil, nil", none, err)
	}
}

// livePrefix builds entries for the live registry's first n matrix
// cells in dispatch order — the list PlanDelta walks.
func livePrefix(cfg ledger.Config, n int) []*ledger.Entry {
	var out []*ledger.Entry
	for _, ref := range campaign.MatrixCells(nil)[:n] {
		spec, _ := exploits.SpecByName(ref.UseCase)
		e := entry(ref.Version, ref.UseCase, string(ref.Mode), 0)
		e.Seed = cfg.Seed
		e.SpecDigest = spec.Digest()
		out = append(out, e)
	}
	return out
}

func TestPlanDelta(t *testing.T) {
	cfg := ledger.CurrentConfig(0, false)

	full := ledger.PlanDelta(nil, cfg)
	if len(full.Rerun) != full.Expected || len(full.Reused) != 0 || full.Expected == 0 {
		t.Fatalf("nil prior must plan a full rerun: %+v", full)
	}

	run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: full.Expected}
	entries := livePrefix(cfg, full.Expected)
	if len(entries) != full.Expected {
		t.Fatalf("live prefix built %d entries, expected %d", len(entries), full.Expected)
	}
	complete := ledger.Settle(run, entries)
	d := ledger.PlanDelta(complete, cfg)
	if len(d.Rerun) != 0 || len(d.Reused) != full.Expected || d.Stale != 0 {
		t.Errorf("complete prior must plan zero rerun: rerun=%d reused=%d stale=%d", len(d.Rerun), len(d.Reused), d.Stale)
	}

	partial := ledger.Settle(run, entries[:len(entries)-3])
	d = ledger.PlanDelta(partial, cfg)
	if len(d.Rerun) != 3 || len(d.Reused) != full.Expected-3 {
		t.Errorf("3 absent cells must plan 3 reruns: rerun=%d reused=%d", len(d.Rerun), len(d.Reused))
	}

	stale := livePrefix(cfg, full.Expected)
	stale[0].SpecDigest = "0000000000000000"
	d = ledger.PlanDelta(ledger.Settle(run, stale), cfg)
	if len(d.Rerun) != 1 || d.Stale != 1 {
		t.Errorf("a changed spec digest must invalidate exactly its cell: rerun=%d stale=%d", len(d.Rerun), d.Stale)
	}

	interrupted := livePrefix(cfg, full.Expected)
	interrupted[1].Verdict = nil
	interrupted[1].Error = &campaign.CellError{Cell: "x", Class: campaign.FailCanceled, Message: "interrupted"}
	d = ledger.PlanDelta(ledger.Settle(run, interrupted), cfg)
	if len(d.Rerun) != 1 || d.Stale != 0 {
		t.Errorf("a canceled cell must rerun as absent: rerun=%d stale=%d", len(d.Rerun), d.Stale)
	}
}

// diffFixtures builds a baseline record and a mutated candidate with
// one verdict flip, one lost coverage edge, and one latency drift.
func diffFixtures(t *testing.T) (*ledger.Record, *ledger.Record) {
	t.Helper()
	cfg := testConfig()
	mk := func(mutate bool) *ledger.Record {
		a := entry("4.6", "XSA-212-crash", "exploit", 0)
		a.Coverage = &ledger.CoverageRecord{EdgeList: []coverage.Edge{
			{Family: "hypercall", Name: "mmu_update:ok", Count: 3},
			{Family: "pagetype", Name: "get:l1@general", Count: 1},
		}}
		a.Latency = &span.Latency{Found: true, Events: 5}
		b := entry("4.6", "XSA-212-crash", "injection", 0)
		if mutate {
			a.Coverage.EdgeList = a.Coverage.EdgeList[:1]
			a.Latency = &span.Latency{Found: true, Events: 9}
			b.Verdict.SecurityViolation = false
		}
		for _, e := range []*ledger.Entry{a, b} {
			if e.Coverage != nil {
				m := coverage.FromEdges(e.Coverage.EdgeList)
				e.Coverage.Digest, e.Coverage.Edges = m.Digest(), m.Len()
			}
		}
		run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: 2}
		return ledger.Settle(run, []*ledger.Entry{a, b})
	}
	return mk(false), mk(true)
}

func TestDiffDetectsRegressions(t *testing.T) {
	base, cand := diffFixtures(t)

	clean := ledger.Diff(base, base)
	if !clean.Clean() || clean.Fatal() {
		t.Errorf("self-diff must be clean: %s", clean.Render())
	}
	if !strings.Contains(clean.Render(), "no differences") {
		t.Errorf("clean render missing marker:\n%s", clean.Render())
	}

	d := ledger.Diff(base, cand)
	if len(d.Flips) != 1 {
		t.Fatalf("got %d verdict flips, want 1:\n%s", len(d.Flips), d.Render())
	}
	if len(d.LostEdges) != 1 || d.LostEdges[0].Name != "get:l1@general" {
		t.Errorf("lost edges %+v, want exactly get:l1@general", d.LostEdges)
	}
	if len(d.LatencyDrifts) != 1 || d.LatencyDrifts[0].From != 5 || d.LatencyDrifts[0].To != 9 {
		t.Errorf("latency drifts %+v, want 5 -> 9", d.LatencyDrifts)
	}
	if !d.Fatal() {
		t.Error("a verdict flip and a lost edge must be fatal")
	}
	out := d.Render()
	for _, want := range []string{"VERDICT FLIPS (1)", "LOST pagetype/get:l1@general", "DETECTION LATENCY DRIFT (1)", "5 -> 9 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff render missing %q:\n%s", want, out)
		}
	}
	if got := ledger.Diff(base, cand).Render(); got != out {
		t.Error("diff render is not deterministic")
	}

	// Growth alone — new edges, new cells — must not be fatal.
	growth := ledger.Diff(cand, base)
	if len(growth.Flips) != 1 {
		t.Errorf("reverse diff still flips the verdict: %d", len(growth.Flips))
	}
	if len(growth.NewEdges) != 1 || len(growth.LostEdges) != 0 {
		t.Errorf("reverse diff edges: new=%d lost=%d, want 1/0", len(growth.NewEdges), len(growth.LostEdges))
	}
}
