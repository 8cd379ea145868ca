package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/ledger"
	"repro/internal/report"
)

// The three workloads. Each is a closed loop: one campaign at a time,
// the next starting when the previous one has settled, with at most
// nproc workers inside a campaign.

// baselineFile is the committed ledger record every matrix campaign is
// checked against, relative to the repository root.
const baselineFile = "LEDGER_baseline.json"

// errMismatch marks a campaign whose output differs from its reference.
var errMismatch = errors.New("output differs from the reference")

// workload runs campaigns of one kind.
type workload interface {
	// run executes one campaign. It returns the number of cells the
	// campaign settled and a check that compares the campaign's output
	// with the reference; the caller runs the check outside the timed
	// window.
	run(ctx context.Context) (cells int, check func() error, err error)
}

// matrixPlain is the `repro -matrix` path: the full registry matrix on
// a runner with every hook nil. With fresh set it is the
// `repro -matrix -no-snapshot` path, where every cell boots its own
// environment instead of forking a sealed snapshot.
type matrixPlain struct {
	workers int
	fresh   bool
	want    string // report.Matrix of the baseline record
	// customize, when set, adds hooks to each campaign's runner; nil on
	// the untraced path.
	customize func(*campaign.Runner)
}

func newMatrixPlain(workers int, fresh bool) (*matrixPlain, error) {
	base, err := ledger.LoadRecordFile(baselineFile)
	if err != nil {
		return nil, err
	}
	return &matrixPlain{workers: workers, fresh: fresh, want: report.Matrix(base.MatrixEntries())}, nil
}

func (w *matrixPlain) run(ctx context.Context) (int, func() error, error) {
	// The toggle is process-wide; campaigns run one at a time, so each
	// sets it for itself.
	campaign.EnableSnapshots(!w.fresh)
	r := campaign.Runner{Workers: w.workers}
	if w.customize != nil {
		w.customize(&r)
	}
	entries, err := r.RunMatrixContext(ctx)
	if err != nil {
		return 0, nil, err
	}
	return len(entries), func() error {
		if report.Matrix(entries) != w.want {
			return fmt.Errorf("rendered matrix: %w", errMismatch)
		}
		return nil
	}, nil
}

// matrixLedger is the `repro -ledger` / `make ledger-diff` flow: a fresh
// store, journal every cell, grade equivalence, settle, then load the
// baseline and diff the settled record against it.
type matrixLedger struct {
	workers int
	root    string // per-process scratch directory for the stores

	// observe, when set, wraps the ledger writer the runner journals
	// into; customize, when set, adds hooks to the campaign's runner.
	// Both are nil on the untraced path.
	observe   func(*ledger.Writer) campaign.CellObserver
	customize func(*campaign.Runner)
	// timings, when set, receives the host time of the flow's own steps.
	timings *ledgerTimings
}

// ledgerTimings accumulates the host time of the ledger flow's steps.
type ledgerTimings struct {
	equivalenceMS, closeMS, diffMS []float64
	journalBytes                   []float64
	record                         *ledger.Record // the last settled record
}

func newMatrixLedger(workers int, root string) *matrixLedger {
	return &matrixLedger{workers: workers, root: root}
}

func (w *matrixLedger) run(ctx context.Context) (int, func() error, error) {
	dir, err := os.MkdirTemp(w.root, "store-")
	if err != nil {
		return 0, nil, err
	}
	store, err := ledger.Open(dir)
	if err != nil {
		return 0, nil, err
	}
	cfg := ledger.CurrentConfig(0, false)
	delta := ledger.PlanDelta(nil, cfg)
	campaign.EnableSnapshots(true)
	writer, err := store.NewWriter(cfg, delta.Expected)
	if err != nil {
		return 0, nil, err
	}
	r := campaign.Runner{Workers: w.workers, Observer: writer}
	if w.observe != nil {
		r.Observer = w.observe(writer)
	}
	if w.customize != nil {
		w.customize(&r)
	}
	entries, err := r.RunCellRefs(ctx, delta.Rerun)
	if err != nil {
		writer.Close()
		return 0, nil, err
	}
	t := startSpan()
	verdicts, err := ledger.Equivalence(writer.Snapshot())
	if err != nil {
		writer.Close()
		return 0, nil, err
	}
	writer.RecordEquivalence(verdicts)
	eqMS := t.ms()
	t = startSpan()
	rec, err := writer.Close()
	if err != nil {
		return 0, nil, err
	}
	closeMS := t.ms()
	t = startSpan()
	base, err := ledger.LoadRecordFile(baselineFile)
	if err != nil {
		return 0, nil, err
	}
	diff := ledger.Diff(base, rec)
	diffMS := t.ms()
	if w.timings != nil {
		lt := w.timings
		lt.equivalenceMS = append(lt.equivalenceMS, eqMS)
		lt.closeMS = append(lt.closeMS, closeMS)
		lt.diffMS = append(lt.diffMS, diffMS)
		if fi, err := os.Stat(filepath.Join(writer.Dir(), "cells.jsonl")); err == nil {
			lt.journalBytes = append(lt.journalBytes, float64(fi.Size())/float64(len(entries)))
		}
		lt.record = rec
	}
	return len(entries), func() error {
		defer os.RemoveAll(dir)
		if err := rec.Verify(); err != nil {
			return fmt.Errorf("matrix-ledger: %w", err)
		}
		switch {
		case !rec.Complete() || rec.Failed() != 0:
			return fmt.Errorf("matrix-ledger: %d of %d cells settled, %d failed: %w",
				rec.Completed, rec.Cells, rec.Failed(), errMismatch)
		case diff.Fatal():
			return fmt.Errorf("matrix-ledger: diff against %s: %s: %w", baselineFile, diff.Render(), errMismatch)
		}
		return nil
	}, nil
}
