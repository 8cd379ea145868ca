package campaign

import (
	"fmt"

	"repro/internal/hv"
)

// Score aggregates one version's behaviour under the injection campaign
// into benchmark-style numbers — the "security benchmark for virtualized
// infrastructures" the paper's conclusions aim at: instead of counting
// vulnerabilities (which says nothing about unknown ones), count how
// many injected intrusion effects the system tolerates.
type Score struct {
	// Version is the hypervisor release.
	Version string
	// StatesInjected counts erroneous states successfully induced.
	StatesInjected int
	// Violations counts those that became security violations.
	Violations int
	// Handled counts those the system coped with.
	Handled int
	// FailedInjections counts states that could not be induced (should
	// be zero for a working injector).
	FailedInjections int
}

// Resilience returns the fraction of injected states the system
// handled, in [0, 1]; the benchmark's headline number.
func (s Score) Resilience() float64 {
	if s.StatesInjected == 0 {
		return 0
	}
	return float64(s.Handled) / float64(s.StatesInjected)
}

// String renders the score as a benchmark row.
func (s Score) String() string {
	return fmt.Sprintf("Xen %-5s states=%d violations=%d handled=%d resilience=%.2f",
		s.Version, s.StatesInjected, s.Violations, s.Handled, s.Resilience())
}

// InScores admits the cells the security benchmark reads: injection.
func InScores(c CellRef) bool { return c.Mode == ModeInjection }

// Scores projects the security benchmark: the injection campaign (all
// use cases) against every version, aggregated per version. On the
// paper's data the expected ranking is 4.13 (0.50) > 4.8 (0.00) = 4.6
// (0.00).
func Scores(entries []MatrixEntry) ([]Score, error) {
	cells, err := project(entries, InScores, func(c CellRef, err error) error {
		return fmt.Errorf("campaign: benchmark %s on %s: %w", c.UseCase, c.Version, err)
	})
	if err != nil {
		return nil, err
	}
	var scores []Score
	next := 0
	for _, v := range hv.Versions() {
		s := Score{Version: v.Name}
		for ; next < len(cells) && cells[next].Version == v.Name; next++ {
			verdict := cells[next].Result.Verdict
			if !verdict.ErroneousState {
				s.FailedInjections++
				continue
			}
			s.StatesInjected++
			if verdict.SecurityViolation {
				s.Violations++
			} else {
				s.Handled++
			}
		}
		scores = append(scores, s)
	}
	return scores, nil
}
