package campaign

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hv"
)

// The paper's artifacts are pure projections over one campaign's
// entries, live or rebuilt from a run-ledger record; each names the
// cells it reads with a predicate.

// project reads the cells keep admits from a campaign's entries, in
// dispatch order, for every use case the entries mention — so a registry
// subset projects on its own. A missing or failed cell fails the
// projection, under ContinueOnError too, through wrap.
func project(entries []MatrixEntry, keep func(CellRef) bool, wrap func(CellRef, error) error) ([]MatrixEntry, error) {
	have := make(map[CellRef]MatrixEntry, len(entries))
	mentioned := make(map[string]bool)
	for _, e := range entries {
		have[CellRef{e.Version, e.UseCase, e.Mode}] = e
		mentioned[e.UseCase] = true
	}
	cells := matrixCells(func(c CellRef) bool { return mentioned[c.UseCase] && keep(c) })
	out := make([]MatrixEntry, len(cells))
	for i, c := range cells {
		e := have[c.ref()]
		if e.Err != nil {
			return nil, wrap(c.ref(), e.Err)
		}
		if e.Result == nil {
			return nil, wrap(c.ref(), errors.New("cell has no result in the campaign"))
		}
		out[i] = e
	}
	return out, nil
}

// Fig4Row is one use case of the RQ1 validation (Fig. 4): the original
// exploit and the injection script on the vulnerable version, compared.
type Fig4Row struct {
	UseCase   string
	Exploit   *RunResult
	Injection *RunResult
	// StatesMatch and ViolationsMatch are the equivalence the figure's
	// "compare" step asserts.
	StatesMatch     bool
	ViolationsMatch bool
}

// InFig4 admits the cells Figure 4 reads: both modes on 4.6.
func InFig4(c CellRef) bool { return c.Version == hv.Version46().Name }

// Fig4 projects the RQ1 experiment: every use case, exploit vs
// injection, on the vulnerable 4.6 version.
func Fig4(entries []MatrixEntry) ([]Fig4Row, error) {
	cells, err := project(entries, InFig4, func(c CellRef, err error) error {
		return fmt.Errorf("campaign: fig4 %s %s: %w", c.UseCase, c.Mode, err)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, 0, len(cells)/2)
	for i := 0; i+1 < len(cells); i += 2 {
		ex, in := cells[i].Result, cells[i+1].Result
		rows = append(rows, Fig4Row{
			UseCase:         cells[i].UseCase,
			Exploit:         ex,
			Injection:       in,
			StatesMatch:     ex.Verdict.ErroneousState == in.Verdict.ErroneousState,
			ViolationsMatch: ex.Verdict.SecurityViolation == in.Verdict.SecurityViolation,
		})
	}
	return rows, nil
}

// Table3Cell is one (use case, version) cell of Table III.
type Table3Cell struct {
	ErrState bool
	SecViol  bool
}

// Table3Row is one use case across the non-vulnerable versions.
type Table3Row struct {
	UseCase string
	Cells   map[string]Table3Cell // keyed by version name
}

// Table3Versions are the non-vulnerable versions the campaign injects
// into. The returned slice is freshly allocated on every call; callers
// may mutate it freely.
func Table3Versions() []hv.Version {
	return []hv.Version{hv.Version48(), hv.Version413()}
}

// InTable3 admits the cells Table III reads: injection on 4.8 and 4.13.
func InTable3(c CellRef) bool {
	return c.Mode == ModeInjection && slices.ContainsFunc(Table3Versions(), func(v hv.Version) bool { return v.Name == c.Version })
}

// Table3 projects the RQ2/RQ3 injection campaign: every use case's
// injection script against 4.8 and 4.13. Rows follow the dispatch order
// of each use case's first cell.
func Table3(entries []MatrixEntry) ([]Table3Row, error) {
	cells, err := project(entries, InTable3, func(c CellRef, err error) error {
		return fmt.Errorf("campaign: table3 %s on %s: %w", c.UseCase, c.Version, err)
	})
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	byCase := make(map[string]map[string]Table3Cell)
	for _, e := range cells {
		row, ok := byCase[e.UseCase]
		if !ok {
			row = make(map[string]Table3Cell, 2)
			byCase[e.UseCase] = row
			rows = append(rows, Table3Row{UseCase: e.UseCase, Cells: row})
		}
		row[e.Version] = Table3Cell{ErrState: e.Result.Verdict.ErroneousState, SecViol: e.Result.Verdict.SecurityViolation}
	}
	return rows, nil
}

// MatrixEntry is one cell of the full campaign: every version, use case
// and mode. The exploit rows on fixed versions document Section VII's
// "we could not induce the erroneous states" with the original PoCs.
type MatrixEntry struct {
	Version string
	UseCase string
	Mode    Mode
	// Result is the cell's outcome, nil when the cell failed under a
	// ContinueOnError campaign.
	Result *RunResult
	// Err is the cell's failure record, nil when the cell succeeded.
	// Populated only by ContinueOnError campaigns; the default mode
	// reports the first failure as the campaign error instead.
	Err *CellError
}
