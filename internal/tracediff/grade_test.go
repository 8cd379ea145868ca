package tracediff

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
)

var gradeVersions = []string{"4.6", "4.8", "4.13"}

// exploitCell and injectionCell build hand-made grading inputs.
func exploitCell(version, useCase string, erroneous, violation bool, effects, audit []string) Cell {
	return Cell{Version: version, UseCase: useCase, Mode: campaign.ModeExploit,
		ErroneousState: erroneous, SecurityViolation: violation, Effects: effects, StateAudit: audit}
}

func injectionCell(version, useCase string, violation bool, effects, audit []string) Cell {
	return Cell{Version: version, UseCase: useCase, Mode: campaign.ModeInjection,
		ErroneousState: true, SecurityViolation: violation, Effects: effects, StateAudit: audit}
}

// TestGradeBases drives each basis of Grade on hand-built cells: the
// same-version exploit where it induced the state, the reference
// exploit's effects where the security outcomes agree, and the marked
// state audit where the fixed version handled the injected state.
func TestGradeBases(t *testing.T) {
	ref := []string{"step write pte", "evidence pte writable", "evidence root shell"}
	refAudit := []string{"evidence pte writable"}
	cells := []Cell{
		exploitCell("4.6", "S", true, true, ref, refAudit),
		injectionCell("4.6", "S", true, ref, refAudit),
		// Blocked exploit, injection still violates: reference-exploit.
		exploitCell("4.8", "S", false, false, []string{"step rejected"}, nil),
		injectionCell("4.8", "S", true, ref, refAudit),
		// Blocked exploit, injected state handled: state-audit.
		exploitCell("4.13", "S", false, false, []string{"step rejected"}, nil),
		injectionCell("4.13", "S", false, []string{"step write pte", "evidence pte writable", "evidence handled"}, refAudit),
	}
	got, err := Grade(cells, gradeVersions)
	if err != nil {
		t.Fatal(err)
	}
	want := []CellVerdict{
		{UseCase: "S", Version: "4.6", Tier: TierEquivalent, Basis: BasisExploit, BaseEvents: 3, InjectionEvents: 3},
		{UseCase: "S", Version: "4.8", Tier: TierEquivalent, Basis: BasisReference, RefVersion: "4.6", BaseEvents: 3, InjectionEvents: 3},
		{UseCase: "S", Version: "4.13", Tier: TierEquivalent, Basis: BasisStateAudit, RefVersion: "4.6", BaseEvents: 1, InjectionEvents: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts:\n got  %+v\n want %+v", got, want)
	}
}

// TestGradeDivergence pins the first-divergence evidence: the index
// and both lines at the first disagreement, and Absent on the side
// whose stream ended early.
func TestGradeDivergence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, inj []string
		want      Divergence
	}{
		{"mismatch", []string{"a", "b", "c"}, []string{"a", "x", "c"}, Divergence{Index: 1, A: "b", B: "x"}},
		{"injection-short", []string{"a", "b"}, []string{"a"}, Divergence{Index: 1, A: "b", B: Absent}},
		{"exploit-short", []string{"a"}, []string{"a", "b"}, Divergence{Index: 1, A: Absent, B: "b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Grade([]Cell{
				exploitCell("4.6", "S", true, true, tc.base, nil),
				injectionCell("4.6", "S", true, tc.inj, nil),
			}, gradeVersions)
			if err != nil {
				t.Fatal(err)
			}
			cv := got[0]
			if cv.Tier != TierDivergent || cv.Equivalent() {
				t.Fatalf("tier %s, want %s", cv.Tier, TierDivergent)
			}
			if cv.Divergence == nil || *cv.Divergence != tc.want {
				t.Errorf("divergence %+v, want %+v", cv.Divergence, tc.want)
			}
			if cv.BaseEvents != len(tc.base) || cv.InjectionEvents != len(tc.inj) {
				t.Errorf("compared %d/%d events, want %d/%d", cv.BaseEvents, cv.InjectionEvents, len(tc.base), len(tc.inj))
			}
		})
	}
}

// TestGradeVacuousStateAudit: a handled cell whose reference and
// injection both attest no state is divergent, not vacuously equal.
func TestGradeVacuousStateAudit(t *testing.T) {
	got, err := Grade([]Cell{
		exploitCell("4.6", "S", true, true, []string{"e"}, nil),
		injectionCell("4.6", "S", true, []string{"e"}, nil),
		exploitCell("4.13", "S", false, false, nil, nil),
		injectionCell("4.13", "S", false, []string{"handled"}, nil),
	}, gradeVersions)
	if err != nil {
		t.Fatal(err)
	}
	cv := got[1]
	want := CellVerdict{UseCase: "S", Version: "4.13", Tier: TierDivergent, Basis: BasisStateAudit,
		RefVersion: "4.6", Divergence: &Divergence{A: Absent, B: Absent}}
	if !reflect.DeepEqual(cv, want) {
		t.Errorf("vacuous audit:\n got  %+v (divergence %+v)\n want %+v", cv, cv.Divergence, want)
	}
}

// TestGradeReferenceOrder: the reference exploit is the first version,
// in the given order, whose exploit induced the state.
func TestGradeReferenceOrder(t *testing.T) {
	cells := []Cell{
		exploitCell("4.6", "S", true, true, []string{"e"}, nil),
		injectionCell("4.6", "S", true, []string{"e"}, nil),
		exploitCell("4.8", "S", true, true, []string{"e"}, nil),
		injectionCell("4.8", "S", true, []string{"e"}, nil),
		exploitCell("4.13", "S", false, false, nil, nil),
		injectionCell("4.13", "S", true, []string{"e"}, nil),
	}
	for _, tc := range []struct {
		versions []string
		ref      string
	}{
		{[]string{"4.6", "4.8", "4.13"}, "4.6"},
		{[]string{"4.8", "4.6", "4.13"}, "4.8"},
	} {
		got, err := Grade(cells, tc.versions)
		if err != nil {
			t.Fatal(err)
		}
		if cv := got[2]; cv.Basis != BasisReference || cv.RefVersion != tc.ref {
			t.Errorf("versions %v: basis %s ref %q, want %s ref %q", tc.versions, cv.Basis, cv.RefVersion, BasisReference, tc.ref)
		}
	}
}

// TestGradeErrors: an exploit cell without its injection sibling, and
// a blocked exploit whose scenario induced the state on no version,
// cannot be graded.
func TestGradeErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells []Cell
		want  string
	}{
		{"missing-injection-sibling", []Cell{
			exploitCell("4.6", "S", true, true, []string{"e"}, nil),
			injectionCell("4.6", "S", true, []string{"e"}, nil),
			exploitCell("4.8", "S", false, false, nil, nil),
		}, "cell 4.8/S has no injection sibling"},
		{"no-reference", []Cell{
			exploitCell("4.6", "S", false, false, nil, nil),
			injectionCell("4.6", "S", true, []string{"e"}, nil),
		}, "S: no version's exploit induced the erroneous state"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Grade(tc.cells, gradeVersions)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Grade = %+v, %v; want an error containing %q", got, err, tc.want)
			}
		})
	}
}
