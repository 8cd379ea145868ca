package tracediff

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/hv"
)

// The RQ2 pairing. For every (scenario, version) cell the engine picks
// the strongest comparison the matrix supports:
//
//   - On a version where the exploit still induces the state, the
//     exploit run itself is the basis: its effect stream must equal the
//     injection run's (same version, different mechanism).
//   - On a fixed version the exploit is blocked — its trace ends at the
//     validation reject, so it cannot attest what the injected state
//     should look like. The basis is then the *reference* exploit: the
//     earliest version whose exploit induced the state (4.6 in the
//     paper's matrix). When the injection's security outcome matches
//     the reference's, the full effect streams are compared across
//     versions (canonicalization masks the version banners).
//   - When the outcomes differ — the hardened version *handled* the
//     injected state, the shield cells of Table III — the consequence
//     phases legitimately diverge, and the comparison narrows to the
//     monitor's marked erroneous-state audit: the injected state must
//     still look exactly like the exploit-induced one, even though the
//     system's reaction differs. That narrowing is the paper's RQ2
//     reading for handled cells: equivalence of the *state*, not of
//     the consequences the hardening suppressed.
type Basis string

// Comparison bases.
const (
	// BasisExploit compares against the same version's exploit run.
	BasisExploit Basis = "exploit@version"
	// BasisReference compares against the reference version's exploit
	// run (full effect streams, cross-version).
	BasisReference Basis = "reference-exploit"
	// BasisStateAudit compares only the marked erroneous-state audit
	// against the reference exploit's.
	BasisStateAudit Basis = "state-audit"
)

// CellVerdict is one (scenario, version) cell's trace-equivalence
// result.
type CellVerdict struct {
	// UseCase and Version identify the cell.
	UseCase string `json:"use_case"`
	Version string `json:"version"`
	// Tier is the verdict.
	Tier Tier `json:"tier"`
	// Basis says which comparison produced it.
	Basis Basis `json:"basis"`
	// RefVersion is the reference exploit's version when the basis is
	// cross-version.
	RefVersion string `json:"ref_version,omitempty"`
	// BaseEvents and InjectionEvents are the compared stream lengths
	// (effect events, or marked audit events under BasisStateAudit).
	BaseEvents      int `json:"base_events"`
	InjectionEvents int `json:"injection_events"`
	// Divergence is the first disagreement, nil unless divergent.
	Divergence *Divergence `json:"divergence,omitempty"`
}

// Equivalent reports whether the cell passed (identical or
// equivalent-modulo-noise).
func (cv *CellVerdict) Equivalent() bool { return cv.Tier != TierDivergent }

// Cell is one matrix cell as RQ2 grading reads it: its coordinate,
// the monitor's verdict bits, and its persisted canonical streams (the
// effect and marked state-audit lines of CanonicalStreams). Live
// matrices and run-ledger records both map into it, so one grader
// serves both.
type Cell struct {
	Version, UseCase                  string
	Mode                              campaign.Mode
	ErroneousState, SecurityViolation bool
	Effects, StateAudit               []string
}

// Grade computes the per-cell RQ2 verdicts of a matrix: one per
// exploit cell, in cells order, each paired with its injection sibling
// and graded on the strongest basis the matrix supports (see Basis).
// versions orders the reference-exploit search: the reference is the
// earliest version whose exploit induced the erroneous state. An
// exploit cell with no injection sibling, or a fixed-version cell whose
// scenario has no reference, is an error.
func Grade(cells []Cell, versions []string) ([]CellVerdict, error) {
	type key struct {
		version, useCase string
		mode             campaign.Mode
	}
	idx := make(map[key]*Cell, len(cells))
	for i := range cells {
		c := &cells[i]
		idx[key{c.Version, c.UseCase, c.Mode}] = c
	}
	reference := func(useCase string) *Cell {
		for _, v := range versions {
			if c, ok := idx[key{v, useCase, campaign.ModeExploit}]; ok && c.ErroneousState {
				return c
			}
		}
		return nil
	}

	var out []CellVerdict
	for i := range cells {
		e := &cells[i]
		if e.Mode != campaign.ModeExploit {
			continue
		}
		inj, ok := idx[key{e.Version, e.UseCase, campaign.ModeInjection}]
		if !ok {
			return nil, fmt.Errorf("tracediff: cell %s/%s has no injection sibling in the matrix", e.Version, e.UseCase)
		}
		cv := CellVerdict{UseCase: e.UseCase, Version: e.Version}
		base, injected := e.Effects, inj.Effects
		if e.ErroneousState {
			// The exploit worked here: strongest basis.
			cv.Basis = BasisExploit
		} else {
			ref := reference(e.UseCase)
			if ref == nil {
				return nil, fmt.Errorf("tracediff: %s: no version's exploit induced the erroneous state; no reference to compare %s's injection against", e.UseCase, e.Version)
			}
			cv.RefVersion = ref.Version
			if inj.SecurityViolation == ref.SecurityViolation {
				cv.Basis = BasisReference
				base = ref.Effects
			} else {
				// Handled cell: compare the erroneous state itself.
				cv.Basis = BasisStateAudit
				base, injected = ref.StateAudit, inj.StateAudit
			}
		}
		cv.BaseEvents, cv.InjectionEvents = len(base), len(injected)
		if cv.Basis == BasisStateAudit && len(base) == 0 && len(injected) == 0 {
			// Nothing attested on either side: vacuous equality is not
			// equivalence evidence.
			cv.Tier, cv.Divergence = TierDivergent, &Divergence{A: Absent, B: Absent}
		} else {
			cv.Tier, cv.Divergence = CompareStreams(base, injected)
		}
		out = append(out, cv)
	}
	return out, nil
}

// MatrixEquivalence computes per-cell trace-equivalence verdicts for a
// profiled campaign matrix. Entries must come from a Runner with a
// Telemetry registry (every cell needs its event trace) and a fully
// successful run — a failed or unprofiled cell is an error, because an
// equivalence claim over a partial matrix would be vacuous. Each cell
// is reduced to its CanonicalStreams and graded by Grade, so verdicts
// are returned in matrix order (version-major, scenario-minor), one per
// exploit/injection pair.
func MatrixEquivalence(entries []campaign.MatrixEntry) ([]CellVerdict, error) {
	cells := make([]Cell, len(entries))
	for i := range entries {
		e := &entries[i]
		if e.Err != nil {
			return nil, fmt.Errorf("tracediff: cell %s/%s/%s failed: %w", e.Version, e.UseCase, e.Mode, e.Err)
		}
		if e.Result == nil || e.Result.Profile == nil {
			return nil, fmt.Errorf("tracediff: cell %s/%s/%s has no telemetry profile (run with a Telemetry registry)", e.Version, e.UseCase, e.Mode)
		}
		eff, audit := CanonicalStreams(e.Version, campaign.MachineFrames, e.Result.Profile.Events)
		cells[i] = Cell{
			Version: e.Version, UseCase: e.UseCase, Mode: e.Mode,
			ErroneousState:    e.Result.Verdict.ErroneousState,
			SecurityViolation: e.Result.Verdict.SecurityViolation,
			Effects:           eff, StateAudit: audit,
		}
	}
	vs := hv.Versions()
	versions := make([]string, len(vs))
	for i, v := range vs {
		versions[i] = v.Name
	}
	return Grade(cells, versions)
}
