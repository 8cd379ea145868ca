package tracediff

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// runProfiledMatrix runs the full default matrix with telemetry once
// per test binary; every test here reads the same entries.
func runProfiledMatrix(t *testing.T) []campaign.MatrixEntry {
	t.Helper()
	r := &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry()}
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("RunMatrixContext: %v", err)
	}
	return entries
}

// TestMatrixEquivalenceGolden pins the trace-equivalence verdict of
// every default-matrix cell: the RQ2 claim at event granularity. The
// six cells pinned in detail are the same six the monitor evidence
// goldens cover (the four violated 4.6 cells and the two handled 4.13
// cells).
func TestMatrixEquivalenceGolden(t *testing.T) {
	entries := runProfiledMatrix(t)
	verdicts, err := MatrixEquivalence(entries)
	if err != nil {
		t.Fatalf("MatrixEquivalence: %v", err)
	}
	if len(verdicts) != 51 {
		t.Fatalf("got %d cell verdicts, want 51", len(verdicts))
	}
	for _, cv := range verdicts {
		if !cv.Equivalent() {
			t.Errorf("%s on %s: tier %s (basis %s), divergence %+v — every default-matrix cell must be equivalent",
				cv.UseCase, cv.Version, cv.Tier, cv.Basis, cv.Divergence)
		}
	}

	// The six monitor-golden cells, pinned in full.
	type pin struct {
		tier       Tier
		basis      Basis
		refVersion string
	}
	want := map[string]pin{
		"4.6/XSA-212-crash": {TierEquivalent, BasisExploit, ""},
		"4.6/XSA-212-priv":  {TierEquivalent, BasisExploit, ""},
		"4.6/XSA-148-priv":  {TierEquivalent, BasisExploit, ""},
		"4.6/XSA-182-test":  {TierEquivalent, BasisExploit, ""},
		// The hardened 4.13 handles these two injected states (Table
		// III shield cells): the comparison narrows to the monitor's
		// erroneous-state audit against the 4.6 reference exploit.
		"4.13/XSA-212-priv": {TierEquivalent, BasisStateAudit, "4.6"},
		"4.13/XSA-182-test": {TierEquivalent, BasisStateAudit, "4.6"},
	}
	seen := make(map[string]CellVerdict)
	for _, cv := range verdicts {
		seen[cv.Version+"/"+cv.UseCase] = cv
	}
	for cell, w := range want {
		cv, ok := seen[cell]
		if !ok {
			t.Errorf("%s: no verdict produced", cell)
			continue
		}
		if cv.Tier != w.tier || cv.Basis != w.basis || cv.RefVersion != w.refVersion {
			t.Errorf("%s: got tier=%s basis=%s ref=%q, want tier=%s basis=%s ref=%q",
				cell, cv.Tier, cv.Basis, cv.RefVersion, w.tier, w.basis, w.refVersion)
		}
		if cv.BaseEvents == 0 || cv.InjectionEvents == 0 {
			t.Errorf("%s: empty compared streams (base=%d injection=%d)", cell, cv.BaseEvents, cv.InjectionEvents)
		}
	}

	// Basis selection across the corpus: a cell whose exploit landed on
	// the same version compares in-version (BasisExploit) — all of 4.6,
	// plus the event-channel and domctl families whose trigger is the
	// legitimate interface on every version. Blocked PoCs (the
	// memory-corruption triggers on the fixed releases) fall back to the
	// 4.6 reference exploit; the two handled 4.13 paper cells narrow to
	// the erroneous-state audit.
	wantBasis := func(cv CellVerdict) (Basis, string) {
		switch {
		case cv.Version == "4.6":
			return BasisExploit, ""
		case strings.HasPrefix(cv.UseCase, "EVT-") || strings.HasPrefix(cv.UseCase, "DOMCTL-"):
			return BasisExploit, ""
		case cv.Version == "4.13" && (cv.UseCase == "XSA-212-priv" || cv.UseCase == "XSA-182-test"):
			return BasisStateAudit, "4.6"
		default:
			return BasisReference, "4.6"
		}
	}
	for _, cv := range verdicts {
		b, ref := wantBasis(cv)
		if cv.Basis != b || cv.RefVersion != ref {
			t.Errorf("%s/%s: got basis=%s ref=%q, want basis=%s ref=%q",
				cv.Version, cv.UseCase, cv.Basis, cv.RefVersion, b, ref)
		}
	}
}

// TestPerturbedTraceDiverges injects a single extra event into one
// cell's recorded stream and demands the diff reports it as divergent
// with the perturbation as the first-divergence evidence.
func TestPerturbedTraceDiverges(t *testing.T) {
	entries := runProfiledMatrix(t)
	var exp, inj *campaign.MatrixEntry
	for i := range entries {
		e := &entries[i]
		if e.Version == "4.6" && e.UseCase == "XSA-182-test" {
			switch e.Mode {
			case campaign.ModeExploit:
				exp = e
			case campaign.ModeInjection:
				inj = e
			}
		}
	}
	if exp == nil || inj == nil {
		t.Fatal("matrix missing the 4.6/XSA-182-test pair")
	}

	c := NewCanonicalizer("4.6", campaign.MachineFrames)
	base := c.Events(exp.Result.Profile.Events)

	// Perturb: duplicate one scenario step mid-stream in the injection
	// side — a single injected effect event.
	perturbed := make([]telemetry.Event, 0, len(inj.Result.Profile.Events)+1)
	idx := -1
	for i, e := range inj.Result.Profile.Events {
		perturbed = append(perturbed, e)
		if idx < 0 && e.Kind == telemetry.KindScenarioStep {
			perturbed = append(perturbed, telemetry.Event{
				Kind: telemetry.KindScenarioStep, Label: e.Label, Detail: "PERTURBED: injected event",
			})
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("injection stream has no scenario steps to perturb")
	}
	tier, div := Compare(base, c.Events(perturbed))
	if tier != TierDivergent {
		t.Fatalf("perturbed stream graded %s, want %s", tier, TierDivergent)
	}
	if div == nil {
		t.Fatal("divergent verdict carries no divergence evidence")
	}
	// The unperturbed pair is equivalent, so the first effect
	// divergence must be exactly the injected event.
	if want := "PERTURBED: injected event"; !strings.Contains(div.B, want) {
		t.Errorf("divergence evidence B = %q, want it to carry %q (divergence %+v)", div.B, want, div)
	}
}
