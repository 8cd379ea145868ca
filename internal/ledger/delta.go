package ledger

import (
	"slices"

	"repro/internal/campaign"
	"repro/internal/exploits"
)

// The resume planner. A delta rerun walks the full expected matrix of
// the current configuration in dispatch order — campaign.MatrixCells
// filtered to the configured versions — and, for every cell,
// either reuses the prior record's entry or schedules a re-execution.
// An entry is reusable when it exists (a canceled cell never enters the
// canonical record, so interrupted work is simply absent) and its
// scenario's declarative spec digest still matches the live registry —
// a changed or new spec invalidates its cells; corpus growth adds
// absent ones. Failed cells are reused too: under a fixed chaos seed a
// failure is a deterministic outcome, not a flake.

// Delta is a resume plan: the entries carried over from the prior
// record and the cells to re-execute, both in dispatch order.
type Delta struct {
	// Reused are the prior record's still-valid entries.
	Reused []*Entry
	// Rerun are the cells to execute, in dispatch order.
	Rerun []campaign.CellRef
	// Stale counts prior entries invalidated by a spec change (a subset
	// of what Rerun re-executes; absent cells are not counted).
	Stale int
	// Expected is the full matrix size of the current configuration.
	Expected int
}

// PlanDelta computes the resume plan for cfg against a prior record.
// With a nil prior record everything reruns — a fresh campaign is the
// degenerate delta. The prior record must be Compatible with cfg;
// callers enforce that (ErrIncompatible) before planning.
func PlanDelta(prev *Record, cfg Config) Delta {
	refs := campaign.MatrixCells(func(c campaign.CellRef) bool { return slices.Contains(cfg.Versions, c.Version) })
	d := Delta{Expected: len(refs)}
	if prev == nil {
		d.Rerun = refs
		return d
	}
	for _, ref := range refs {
		e := prev.EntryByKey(Key{Scenario: ref.UseCase, Version: ref.Version, Mode: string(ref.Mode), Seed: cfg.Seed})
		if e != nil {
			if s, err := exploits.SpecByName(ref.UseCase); err == nil && e.SpecDigest == s.Digest() {
				d.Reused = append(d.Reused, e)
				continue
			}
			d.Stale++
		}
		d.Rerun = append(d.Rerun, ref)
	}
	return d
}
