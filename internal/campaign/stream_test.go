package campaign_test

// The scheduler-observer suite: the wall-clock SchedObserver hook must
// deliver exactly one terminal CellSettled per cell — including cells
// that panic, hang, or are canceled before pickup — and installing the
// hook (or the structured logger) must leave the deterministic
// artifact byte-for-byte untouched.

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// recordingSched is a thread-safe SchedObserver that remembers every
// hook invocation. Workers call the hooks concurrently.
type recordingSched struct {
	mu         sync.Mutex
	queued     []string
	dispatched map[string]int // cell -> worker
	settled    map[string]int // cell -> settle count
	classes    map[string]campaign.FailureClass
	workers    map[string]int  // cell -> worker at settle
	profiled   map[string]bool // cell -> settled with a profile
	badQueueNS int
}

func newRecordingSched() *recordingSched {
	return &recordingSched{
		dispatched: make(map[string]int),
		settled:    make(map[string]int),
		classes:    make(map[string]campaign.FailureClass),
		workers:    make(map[string]int),
		profiled:   make(map[string]bool),
	}
}

func (r *recordingSched) BatchQueued(cells []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queued = append(r.queued, cells...)
}

func (r *recordingSched) CellDispatched(cell string, worker int, queueNS int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dispatched[cell] = worker
	if queueNS < 0 {
		r.badQueueNS++
	}
}

func (r *recordingSched) CellSettled(cell string, worker int, queueNS, runNS int64, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.settled[cell]++
	r.workers[cell] = worker
	r.profiled[cell] = profile != nil
	if cerr != nil {
		r.classes[cell] = cerr.Class
	}
	if queueNS < 0 || runNS < 0 {
		r.badQueueNS++
	}
}

// TestSchedObserverExactlyOncePerCell runs the chaos matrix — panics,
// hangs, forced errors, the lot — and checks the terminal-event
// contract: one CellSettled per cell, class agreeing with the entry's
// error record, worker identity consistent with dispatch. It also pins
// the derived salvage rule: with no profiling sink installed, a
// campaign that may outlive failing cells still hands every error or
// panic cell's profile to Sched, while hung and canceled cells —
// abandoned with their recorder — settle without one.
func TestSchedObserverExactlyOncePerCell(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		rec := newRecordingSched()
		r := &campaign.Runner{Workers: 8, ContinueOnError: true, Faults: plan, Sched: rec}
		entries, err := r.RunMatrixContext(context.Background())
		plan.ReleaseAll()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rec.queued) != len(entries) {
			t.Fatalf("seed %d: BatchQueued saw %d cells, matrix has %d", seed, len(rec.queued), len(entries))
		}
		if rec.badQueueNS != 0 {
			t.Fatalf("seed %d: %d hook calls carried negative queue/run durations", seed, rec.badQueueNS)
		}
		for _, e := range entries {
			id := e.Version + "/" + e.UseCase + "/" + string(e.Mode)
			if n := rec.settled[id]; n != 1 {
				t.Errorf("seed %d: cell %s settled %d times, want exactly 1", seed, id, n)
			}
			if e.Err != nil {
				if got := rec.classes[id]; got != e.Err.Class {
					t.Errorf("seed %d: cell %s event class %q, entry class %q", seed, id, got, e.Err.Class)
				}
				salvaged := e.Err.Class == campaign.FailError || e.Err.Class == campaign.FailPanic
				if rec.profiled[id] != salvaged {
					t.Errorf("seed %d: %s cell %s settled with profile=%v, want %v", seed, e.Err.Class, id, rec.profiled[id], salvaged)
				}
			} else if _, failed := rec.classes[id]; failed {
				t.Errorf("seed %d: cell %s succeeded but its event carried a failure class", seed, id)
			}
			// A dispatched cell settles on the worker that ran it; an
			// undispatched (canceled) cell settles on the synthetic -1.
			if w, ok := rec.dispatched[id]; ok {
				if rec.workers[id] != w {
					t.Errorf("seed %d: cell %s dispatched on worker %d, settled on %d", seed, id, w, rec.workers[id])
				}
			} else if rec.workers[id] != -1 {
				t.Errorf("seed %d: undispatched cell %s settled on worker %d, want -1", seed, id, rec.workers[id])
			}
		}
		if len(rec.settled) != len(entries) {
			t.Fatalf("seed %d: %d distinct cells settled, want %d", seed, len(rec.settled), len(entries))
		}
	}
}

// cancelOnHang cancels the campaign once a cell settles as a hang, so
// a single chaos run ends with every failure class.
type cancelOnHang struct {
	*recordingSched
	cancel context.CancelFunc
}

func (c cancelOnHang) CellSettled(cell string, worker int, queueNS, runNS int64, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	c.recordingSched.CellSettled(cell, worker, queueNS, runNS, profile, cerr)
	if cerr != nil && cerr.Class == campaign.FailHang {
		c.cancel()
	}
}

// TestSchedSalvageRuleAcrossClasses completes the salvage pin with the
// abandoned classes: a serial seeded chaos matrix plus one wedged cell
// late in matrix order, which the watchdog gives up on and whose hang
// then cancels the rest. Error and panic cells settle with their
// profile; the hung cell and every canceled one settle without.
func TestSchedSalvageRuleAcrossClasses(t *testing.T) {
	const wedged = "4.13/EVT-flood-64/exploit"
	plan := faults.NewPlan(7, faults.DefaultDensity).ArmCell(wedged, faults.SiteWedge, 1)
	defer plan.ReleaseAll()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := newRecordingSched()
	r := &campaign.Runner{Workers: 1, ContinueOnError: true, Faults: plan, CellTimeout: 50 * time.Millisecond,
		Sched: cancelOnHang{rec, cancel}}
	entries, err := r.RunMatrixContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[campaign.FailureClass]int)
	for _, e := range entries {
		if e.Err == nil {
			continue
		}
		seen[e.Err.Class]++
		salvaged := e.Err.Class == campaign.FailError || e.Err.Class == campaign.FailPanic
		if rec.profiled[e.Err.Cell] != salvaged {
			t.Errorf("%s cell %s settled with profile=%v, want %v", e.Err.Class, e.Err.Cell, rec.profiled[e.Err.Cell], salvaged)
		}
	}
	for _, class := range []campaign.FailureClass{campaign.FailError, campaign.FailPanic, campaign.FailHang, campaign.FailCanceled} {
		if seen[class] == 0 {
			t.Errorf("no %s cell in the run (classes %v); the test does not cover it", class, seen)
		}
	}
}

// TestSchedHooksDoNotPerturbArtifact is the quarantine gate: wiring
// the wall-clock observer and the structured-log sink must not move a
// single byte of the deterministic matrix artifact.
func TestSchedHooksDoNotPerturbArtifact(t *testing.T) {
	export := func(sched campaign.SchedObserver) []byte {
		t.Helper()
		return exportMatrix(t, &campaign.Runner{Workers: 4, Sched: sched})
	}
	ref := export(nil)
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	if got := export(events.Fanout{newRecordingSched(), &events.Log{Logger: logger, Workers: 4}}); !bytes.Equal(ref, got) {
		t.Fatal("matrix artifact differs with the sched observer and logger installed")
	}
	for _, want := range []string{`"msg":"batch queued","cells":102,"workers":4`, `"msg":"cell dispatched"`, `"msg":"cell settled"`} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log sink wrote no %s line", want)
		}
	}
}
