package campaign

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// The parallel campaign engine. Every cell of the paper's evaluation
// runs "in a fresh environment" by design — no state is shared between
// runs — so the registry-sized matrix is embarrassingly parallel. The
// Runner
// fans cells out to a worker pool of goroutine-owned environments and
// reassembles the results in deterministic cell order, so the rendered
// tables are byte-identical to the serial path no matter how many
// workers raced to produce them.
//
// The engine is also fault-tolerant, because a campaign that injects
// erroneous states for a living must survive its own substrate
// misbehaving: every cell runs under a recover() barrier (a panicking
// cell becomes a per-cell error record with a stack, and the pool keeps
// draining), under a watchdog deadline (a runaway cell is classified as
// a hang instead of wedging the run), and under a context (cancellation
// classifies unfinished cells instead of abandoning the batch).

// Runner executes campaign cells on a configurable worker pool.
// The zero value uses one worker per available CPU.
type Runner struct {
	// Workers is the worker-pool size. Zero means GOMAXPROCS; negative
	// values are clamped to 1 (the CLI rejects them before they get
	// here, and a library caller passing a negative by accident gets
	// the strictly serial debug path rather than a surprise fan-out).
	// Workers == 1 runs cells strictly serially in cell order, kept for
	// debugging. Failure semantics are identical at any pool size:
	// every cell runs to completion and the first error in cell order
	// is reported.
	Workers int

	// Telemetry, when set, profiles every cell: each gets a fresh
	// per-environment Recorder, and its counters, wall time and retained
	// events are snapshotted into RunResult.Profile and merged into the
	// registry. Nil disables profiling at near-zero cost.
	Telemetry *telemetry.Registry

	// Faults, when set, arms the substrate fault-injection plane for
	// every cell: each gets the injector the plan derives for its cell
	// identity, wired through the hypervisor build into the machine
	// allocator, the hypercall dispatcher and the telemetry sink. Nil
	// disables fault injection.
	Faults *faults.Plan

	// ContinueOnError keeps the campaign going past failing cells:
	// instead of reporting the first error in cell order,
	// RunMatrixContext and RunCellRefs carry a per-cell *CellError record
	// for every failed cell alongside the successful results. Projections
	// whose row shapes need every cell (Fig4, Table3, Scores) fail on the
	// first failed cell they read. The default (false) preserves
	// first-error-in-cell-order semantics exactly.
	//
	// A campaign that may outlive failing cells — ContinueOnError or a
	// Faults plan — gives every cell a recorder, so each error or panic
	// cell's salvaged profile reaches Sched (the flight recorder).
	// Successful cells are unaffected: no Profile is attached to their
	// results, so rendered tables and JSON exports stay byte-identical.
	ContinueOnError bool

	// CellTimeout is the per-cell watchdog deadline. A cell that blows
	// it is abandoned and classified as a hang-class failure rather
	// than wedging the whole run. Zero means DefaultCellTimeout;
	// negative disables the watchdog.
	CellTimeout time.Duration

	// Spans, when set, captures a causal span tree per cell — cell →
	// phase → hypercall/mm-op — and assembles the campaign's span
	// forest. Each cell gets a recorder, whose event counter is the
	// tree's virtual clock; results and rendered tables stay
	// byte-identical to an uninstrumented run. Nil disables span capture.
	Spans *span.Collector

	// Coverage, when set, accumulates a deterministic coverage map per
	// cell — behaviour edges derived from the telemetry stream — and
	// aggregates the campaign union with dispatch-order new-edge
	// attribution. Each cell gets a recorder to feed its map; results
	// and rendered tables stay byte-identical to an uninstrumented run.
	// Nil disables coverage.
	Coverage *coverage.Collector

	// Sched and Observer are the runner's two sinks; every cell settles
	// into both exactly once, after Spans and Coverage.
	//
	// Sched, when set, observes the live wall-clock schedule: batch
	// queueing and per-cell dispatch/settle with worker identity, queue
	// wait, run time, failure record and salvaged profile. It feeds the
	// event bus, the scheduler timeline (and through it /cells), the
	// flight recorder and the structured log; events.Fanout installs
	// several. Pure observation, never deterministic artifacts.
	// Implementations must be safe for concurrent use. Nil disables it
	// at no cost.
	Sched SchedObserver

	// Observer, when set, receives every settled cell's full outcome —
	// verdict or failure record, coverage map, detection latency, span
	// length, wall time — exactly once, the persistence hook the run
	// ledger implements. Setting it gives every cell a recorder, a
	// coverage map and a span tree, and keeps each successful cell's
	// profile on its result; rendered tables stay byte-identical to an
	// unobserved run. Implementations must be safe for concurrent use.
	Observer CellObserver
}

// CellObserver observes settled cells with their full outcomes. The
// hook fires on the worker goroutine that settled the cell — once per
// cell, every outcome class included (canceled cells carry only their
// failure record) — so implementations must synchronize internally and
// return quickly.
type CellObserver interface {
	// CellSettled delivers one cell's settled outcome. Exactly one of
	// res/cerr is non-nil. cov is the cell's coverage map (nil for
	// abandoned cells), lat its RQ3 detection latency, spanV the
	// virtual-time length of its span tree, and wall the observed wall
	// time (not deterministic).
	CellSettled(cell string, res *RunResult, cerr *CellError, cov *coverage.Map, lat span.Latency, spanV uint64, wall time.Duration)
}

// SchedObserver observes the engine's wall-clock scheduling decisions:
// which worker ran which cell, how long the cell waited in the queue,
// and how long it ran. The hooks fire on the worker goroutines, so
// implementations must synchronize internally and return quickly.
// Everything it sees is wall-clock observability — feeding it back into
// campaign results or artifacts would break their determinism.
type SchedObserver interface {
	// BatchQueued announces the cells about to be dispatched, in cell
	// order, before any of them runs.
	BatchQueued(cells []string)
	// CellDispatched fires when a worker picks the cell up. queueNS is
	// the wall time the cell spent announced-but-undispatched.
	CellDispatched(cell string, worker int, queueNS int64)
	// CellSettled fires when the engine settles the cell — exactly once
	// per cell, every outcome class included. worker is -1 and queueNS 0
	// for cells canceled before any worker picked them up. runNS is the
	// observed run time; profile is the cell's telemetry snapshot when
	// one was salvaged (nil otherwise); cerr is nil on success.
	CellSettled(cell string, worker int, queueNS, runNS int64, profile *telemetry.CellProfile, cerr *CellError)
}

// DefaultCellTimeout is the watchdog deadline applied when
// Runner.CellTimeout is zero. A healthy cell completes in well under a
// millisecond; five orders of magnitude of headroom keeps the watchdog
// out of every legitimate run while still unwedging a stuck matrix in
// human time.
const DefaultCellTimeout = 30 * time.Second

// workers resolves the configured pool size.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	if r.Workers < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// cellTimeout resolves the watchdog deadline (0 = disabled).
func (r *Runner) cellTimeout() time.Duration {
	switch {
	case r.CellTimeout < 0:
		return 0
	case r.CellTimeout == 0:
		return DefaultCellTimeout
	}
	return r.CellTimeout
}

// FailureClass buckets how a campaign cell failed.
type FailureClass string

// Failure classes.
const (
	// FailError is an ordinary error return from the cell.
	FailError FailureClass = "error"
	// FailPanic is a recovered panic in the cell's worker.
	FailPanic FailureClass = "panic"
	// FailHang is a cell that exceeded the watchdog deadline.
	FailHang FailureClass = "hang"
	// FailCanceled is a cell cut short by context cancellation.
	FailCanceled FailureClass = "canceled"
)

// CellError is the per-cell failure record a fault-tolerant campaign
// carries instead of dying: which cell, how it failed, and — for panics
// — the sanitized stack of the worker goroutine.
type CellError struct {
	// Cell is the failing cell's "version/use-case/mode" identity.
	Cell string `json:"cell"`
	// Class buckets the failure.
	Class FailureClass `json:"class"`
	// Message is the error or panic text.
	Message string `json:"message"`
	// Stack is the panicking goroutine's stack, with goroutine header
	// and hex addresses normalized so identical faults produce
	// identical records at any worker count. Empty unless Class is
	// FailPanic.
	Stack string `json:"stack,omitempty"`

	cause error
}

// Error renders the record as "class: message".
func (e *CellError) Error() string { return string(e.Class) + ": " + e.Message }

// Unwrap exposes the underlying error (nil for panics and hangs).
func (e *CellError) Unwrap() error { return e.cause }

// failure is how a failed cell surfaces as a caller's error. Plain
// errors surface exactly as they always have (the cause, not the
// record), preserving the engine's messages byte for byte; the classes
// that used to kill or wedge the process surface as their records.
func (e *CellError) failure() error {
	if e.Class == FailError {
		return e.cause
	}
	return e
}

// hexLiteral and goroutineID match the parts of a panic stack that vary
// run to run (argument values, frame pointers, scheduler-assigned
// goroutine numbers in "created by ... in goroutine N" lines) —
// everything else in the stack is a property of the binary, so
// normalizing these makes the record deterministic at any worker count.
var (
	hexLiteral  = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	goroutineID = regexp.MustCompile(`goroutine \d+`)
)

// sanitizeStack strips the "goroutine N [running]:" header and
// normalizes hex literals and goroutine numbers, keeping the function
// names and file:line frames a diagnosis needs.
func sanitizeStack(stack []byte) string {
	lines := strings.Split(strings.TrimRight(string(stack), "\n"), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[0], "goroutine ") {
		lines = lines[1:]
	}
	s := hexLiteral.ReplaceAllString(strings.Join(lines, "\n"), "0x?")
	return goroutineID.ReplaceAllString(s, "goroutine ?")
}

// cell is one (version, use case, mode) coordinate of a campaign.
type cell struct {
	version hv.Version
	useCase string
	mode    Mode
}

// plan is the version-independent part of the experimental setup,
// precomputed once per process instead of once per run: the scenario
// registry (declarative specs in campaign order), the derived scenario
// lookup, and the domain/IP layout of the standard environment.
// Everything in it is immutable after construction, so concurrent
// workers may share it freely.
type plan struct {
	specs      []exploits.Spec
	scenarios  map[string]exploits.Scenario
	guestNames []string
	guestIPs   []string
}

var (
	planOnce   sync.Once
	sharedPlan *plan
)

// campaignPlan returns the shared warm-boot prototype.
func campaignPlan() *plan {
	planOnce.Do(func() {
		p := &plan{scenarios: make(map[string]exploits.Scenario)}
		p.specs = exploits.Specs()
		for _, s := range exploits.Scenarios() {
			p.scenarios[s.Name] = s
		}
		p.guestIPs = []string{"10.3.1.178", "10.3.1.179", AttackerIP}
		for i := range p.guestIPs {
			p.guestNames = append(p.guestNames, fmt.Sprintf("guest%02d", i+1))
		}
		sharedPlan = p
	})
	return sharedPlan
}

// ref names the cell.
func (c cell) ref() CellRef { return CellRef{c.version.Name, c.useCase, c.mode} }

// String renders the cell's trace identity, "version/use-case/mode".
func (c cell) String() string {
	return c.version.Name + "/" + c.useCase + "/" + string(c.mode)
}

// instrumentation is what every cell of a batch gets, resolved once
// from the runner's fields; the zero value instruments nothing.
type instrumentation struct {
	// record gives each cell a recorder; coverage feeds it a coverage
	// map, and spans hangs a span tree off its event counter.
	record, coverage, spans bool
	// keep attaches a successful cell's profile to its result. A failed
	// cell's profile is salvaged whenever the cell has a recorder.
	keep bool
}

// instrumentation resolves what each cell needs for the runner's sinks.
// A failing cell's profile is salvaged whenever the campaign may
// outlive failing cells, so the Sched sinks (the flight recorder) get
// it without a knob of their own.
func (r *Runner) instrumentation() instrumentation {
	in := instrumentation{
		coverage: r.Coverage != nil || r.Observer != nil,
		spans:    r.Spans != nil || r.Observer != nil,
		keep:     r.Telemetry != nil || r.Observer != nil,
	}
	in.record = in.coverage || in.spans || in.keep || r.ContinueOnError || r.Faults != nil
	return in
}

// cellProbe is one cell's instrumentation, armed on the goroutine that
// runs the cell and owned by it.
type cellProbe struct {
	id    string
	rec   *telemetry.Recorder
	tree  *span.Tree
	start time.Time
	keep  bool
}

// arm instruments one cell. inj arms the recorder's sink faults.
func (in instrumentation) arm(id string, inj *faults.Injector) cellProbe {
	p := cellProbe{id: id, keep: in.keep}
	if in.record {
		p.rec = telemetry.NewRecorder(0)
		p.rec.AttachFaults(inj)
		p.start = time.Now()
	}
	if in.coverage {
		p.rec.AttachCoverage(coverage.NewMap())
	}
	if in.spans {
		p.tree = span.NewTree(id, p.rec.Emitted)
	}
	return p
}

// profile snapshots the cell's recorder, nil when it has none.
func (p *cellProbe) profile() *telemetry.CellProfile {
	if p.rec == nil {
		return nil
	}
	return p.rec.Profile(p.id, time.Since(p.start).Nanoseconds())
}

// runCell executes one cell in its own fresh environment. It is the
// unit of work a pool worker owns; nothing it touches outlives the call
// or is shared with another cell. probe instruments the cell (the zero
// probe runs it bare) and must come from the goroutine that calls this:
// the recorder is single-goroutine by design, matching
// one-cell-one-worker ownership. A non-nil injector arms the cell's
// substrate fault plane the same way: one cell, one injector. With a
// span tree, the lifecycle phases (boot, exploit/inject, assess) open
// under its root, and the environment is built with the tree installed
// so hypercall and mm-op spans nest inside them. Error returns leave
// the failing phase open — the guarded caller's Abort closes and marks
// it. abandoned, when non-nil, is set by the guarded caller once it
// stops waiting for this cell (watchdog or cancel); a cell that
// finishes after that point must not recycle its machine fork — the
// runner already wrote it off as poisoned.
func runCell(c cell, probe cellProbe, inj *faults.Injector, abandoned *atomic.Bool) (*RunResult, error) {
	p := campaignPlan()
	scen, ok := p.scenarios[c.useCase]
	if !ok {
		// Fall through to the canonical lookup for its error message.
		var err error
		if scen, err = exploits.ScenarioByName(c.useCase); err != nil {
			return nil, err
		}
	}
	tree := probe.tree
	boot := tree.Phase(span.PhaseBoot)
	e, recycle, err := cellEnvironment(p, c, probe.rec, inj, tree)
	if err != nil {
		return nil, err
	}
	env, err := e.ScenarioEnv(c.mode)
	if err != nil {
		return nil, err
	}
	tree.End(boot)
	// The attack phase is named after the cell's mode, so exploit and
	// injection trees for the same use case stay distinguishable.
	attack := span.PhaseExploit
	if c.mode == ModeInjection {
		attack = span.PhaseInject
	}
	ap := tree.Phase(attack)
	outcome := scen.Run(env)
	tree.End(ap)
	as := tree.Phase(span.PhaseAssess)
	verdict := monitor.Assess(e.HV, e.Guests, outcome)
	tree.End(as)
	res := &RunResult{Outcome: outcome, Verdict: verdict}
	if probe.keep {
		res.Profile = probe.profile()
	}
	// Only a cleanly completed cell that the runner is still waiting for
	// returns its machine fork to the snapshot pool; every error path
	// above — and a cell the watchdog or a cancellation already wrote
	// off, even if it later unwedges and finishes — abandons a possibly
	// poisoned fork to the collector instead.
	if recycle != nil && (abandoned == nil || !abandoned.Load()) {
		recycle()
	}
	return res, nil
}

// cellOutcome pairs one cell's result with its failure record; exactly
// one of res/err is set. profile carries the cell's telemetry snapshot
// when one exists — on failure it is the salvage profile the flight
// recorder dumps. tree, latency and cov carry the cell's span capture
// and coverage map; sending them over the outcome channel is what hands
// their ownership from the cell goroutine back to the worker (an
// abandoned cell keeps them, and the worker settles a stub).
type cellOutcome struct {
	res     *RunResult
	err     *CellError
	profile *telemetry.CellProfile
	tree    *span.Tree
	latency span.Latency
	cov     *coverage.Map
}

// canceled is the failure record of a cell cut short by ctx.
func canceled(id string, err error) cellOutcome {
	return cellOutcome{err: &CellError{Cell: id, Class: FailCanceled, Message: err.Error(), cause: err}}
}

// runGuarded executes one cell behind the engine's fault barriers: a
// recover() that converts a worker panic into a FailPanic record (with
// sanitized stack), a watchdog that classifies a runaway cell as
// FailHang, and the context, which classifies a cancelled cell as
// FailCanceled. The cell body runs on its own goroutine so the worker
// can abandon it; an abandoned body parks on a buffered channel and
// exits when it eventually finishes (or is released from a wedge), so
// nothing leaks once the campaign's injectors are released.
func (r *Runner) runGuarded(ctx context.Context, in instrumentation, c cell, worker int, queuedAt time.Time) cellOutcome {
	id := c.String()
	if err := ctx.Err(); err != nil {
		return r.settle(id, -1, 0, 0, canceled(id, err))
	}
	var inj *faults.Injector
	if r.Faults != nil {
		inj = r.Faults.ForCell(id)
	}
	began := time.Now()
	queueNS := began.Sub(queuedAt).Nanoseconds()
	if queueNS < 0 {
		queueNS = 0
	}
	if r.Sched != nil {
		r.Sched.CellDispatched(id, worker, queueNS)
	}
	done := make(chan cellOutcome, 1)
	// abandoned flips once the worker stops waiting (watchdog, cancel):
	// from then on the cell body, should it ever finish, must not
	// recycle its machine fork into the snapshot pool.
	var abandoned atomic.Bool
	// The cell body runs under pprof labels so CPU and goroutine
	// profiles of a live campaign attribute samples to the cell, its
	// scenario and its hypervisor version.
	go pprof.Do(ctx, pprof.Labels(
		"cell", id,
		"scenario", c.useCase,
		"version", c.version.Name,
	), func(context.Context) {
		// The cell's probe lives on this goroutine so a panicking or
		// erroring cell can still be snapshotted for the flight recorder
		// and the span forest. The watchdog/cancel paths abandon the
		// goroutine and the probe with it — they must never touch it.
		probe := in.arm(id, inj)
		// finish completes a cell's outcome from its probe. The
		// detection latency reads the profile's event copy when there is
		// one, so the ring is copied once per cell; only a cell that
		// keeps no profile copies the ring for it.
		finish := func(out cellOutcome) {
			var evs []telemetry.Event
			if out.profile != nil {
				evs = out.profile.Events
			} else {
				evs = probe.rec.Events()
			}
			out.tree, out.latency, out.cov = probe.tree, span.DetectionLatency(probe.tree, evs), probe.rec.Coverage()
			done <- out
		}
		defer func() {
			if p := recover(); p != nil {
				probe.tree.Abort()
				finish(cellOutcome{err: &CellError{
					Cell:    id,
					Class:   FailPanic,
					Message: fmt.Sprint(p),
					Stack:   sanitizeStack(debug.Stack()),
				}, profile: probe.profile()})
			}
		}()
		res, err := runCell(c, probe, inj, &abandoned)
		if err != nil {
			probe.tree.Abort()
			finish(cellOutcome{err: &CellError{Cell: id, Class: FailError, Message: err.Error(), cause: err},
				profile: probe.profile()})
			return
		}
		probe.tree.Finish()
		finish(cellOutcome{res: res, profile: res.Profile})
	})

	var watchdog <-chan time.Time
	if d := r.cellTimeout(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		watchdog = t.C
	}
	var out cellOutcome
	select {
	case out = <-done:
	case <-watchdog:
		abandoned.Store(true)
		out.err = &CellError{
			Cell:    id,
			Class:   FailHang,
			Message: fmt.Sprintf("cell exceeded the %s watchdog deadline", r.cellTimeout()),
		}
	case <-ctx.Done():
		abandoned.Store(true)
		out = canceled(id, ctx.Err())
	}
	return r.settle(id, worker, queueNS, time.Since(began), out)
}

// settle is the one funnel every cell outcome — success, error, panic,
// hang, cancel, even cells never dispatched — passes through exactly
// once. It files the outcome in a fixed order: spans, the telemetry
// registry, coverage, Observer, Sched. Abandoned cells (hang, cancel
// while running) carry no tree, map or profile — the racing goroutine
// keeps them — so the span stub records only the failure class, and
// coverage settles a nil map as empty coverage deterministically. Cells
// never dispatched (worker -1) ran nothing and get no span stub. Worker
// and wall placement go to Sched alone.
func (r *Runner) settle(id string, worker int, queueNS int64, wall time.Duration, out cellOutcome) cellOutcome {
	if r.Spans != nil && worker >= 0 {
		cs := &span.CellSpans{Cell: id, Latency: out.latency, Tree: out.tree}
		if out.err != nil {
			cs.Class = string(out.err.Class)
		}
		r.Spans.FinishCell(cs)
	}
	// A successful cell's kept profile merges into the registry.
	if out.res != nil {
		r.Telemetry.Record(out.res.Profile)
	}
	// The RQ3 histogram takes every cell whose span tree found evidence.
	if r.Telemetry != nil && out.latency.Found && out.latency.Events >= 0 {
		r.Telemetry.Histogram(telemetry.DetectionLatencyHistogram).Observe(uint64(out.latency.Events))
	}
	if r.Coverage != nil {
		r.Coverage.FinishCell(id, out.cov)
	}
	if r.Observer != nil {
		r.Observer.CellSettled(id, out.res, out.err, out.cov, out.latency, rootSpanV(out.tree), wall)
	}
	if r.Sched != nil {
		r.Sched.CellSettled(id, worker, queueNS, wall.Nanoseconds(), out.profile, out.err)
	}
	return out
}

// rootSpanV is the virtual-time length of a settled cell's span tree
// (its root span's duration), 0 for abandoned cells that kept no tree.
func rootSpanV(t *span.Tree) uint64 {
	if t == nil {
		return 0
	}
	spans := t.Spans()
	if len(spans) == 0 {
		return 0
	}
	return spans[0].EndV - spans[0].StartV
}

// announce tells the batch-level sinks — spans, coverage, Sched — the
// cells about to be dispatched, in cell order, before any of them runs.
func (r *Runner) announce(cells []cell) {
	if r.Spans == nil && r.Coverage == nil && r.Sched == nil {
		return
	}
	ids := make([]string, len(cells))
	for i, c := range cells {
		ids[i] = c.String()
	}
	if r.Spans != nil {
		r.Spans.Announce(ids)
	}
	if r.Coverage != nil {
		r.Coverage.Announce(ids)
	}
	if r.Sched != nil {
		r.Sched.BatchQueued(ids)
	}
}

// runEntries executes a batch of cells and returns one entry per cell,
// in cell order. Panics, hangs and cancellation all land as per-cell
// records; on cancellation, cells never dispatched are marked
// FailCanceled without running. Failure semantics are uniform across
// pool sizes: every cell runs to completion and the first error in cell
// order is reported, so serial and parallel runs of a partially failing
// batch agree on the error. With ContinueOnError no error is reported;
// failed entries carry their per-cell records in Err instead.
func (r *Runner) runEntries(ctx context.Context, cells []cell) ([]MatrixEntry, error) {
	outs := make([]cellOutcome, len(cells))
	in := r.instrumentation()
	r.announce(cells)
	// queuedAt anchors every cell's queue-wait measurement: a cell is
	// runnable from the moment its batch is announced, so its dispatch
	// latency is pickup time minus this.
	queuedAt := time.Now()
	n := r.workers()
	if n > len(cells) {
		n = len(cells)
	}
	if n <= 1 {
		for i, c := range cells {
			outs[i] = r.runGuarded(ctx, in, c, 0, queuedAt)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func(w int) {
				defer wg.Done()
				for i := range next {
					outs[i] = r.runGuarded(ctx, in, cells[i], w, queuedAt)
				}
			}(w)
		}
	dispatch:
		for i := range cells {
			select {
			case next <- i:
			case <-ctx.Done():
				for j := i; j < len(cells); j++ {
					id := cells[j].String()
					outs[j] = r.settle(id, -1, 0, 0, canceled(id, ctx.Err()))
				}
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}
	entries := make([]MatrixEntry, len(cells))
	for i, o := range outs {
		c := cells[i]
		if o.err != nil && !r.ContinueOnError {
			return nil, fmt.Errorf("campaign: matrix %s: %w", c, o.err.failure())
		}
		entries[i] = MatrixEntry{Version: c.version.Name, UseCase: c.useCase, Mode: c.mode, Result: o.res, Err: o.err}
	}
	return entries, nil
}

// RunContext executes one cell under the runner's telemetry and fault
// configuration: the single-cell entry point behind the CLI's -cell
// flag. It runs behind the same barriers as a campaign cell, so a
// panicking or wedged cell reports a classified error instead of
// killing the caller, and cancellation classifies the cell as canceled
// instead of letting it run to completion.
func (r *Runner) RunContext(ctx context.Context, v hv.Version, useCase string, mode Mode) (*RunResult, error) {
	out := r.runGuarded(ctx, r.instrumentation(), cell{version: v, useCase: useCase, mode: mode}, 0, time.Now())
	if out.err != nil {
		return nil, out.err.failure()
	}
	return out.res, nil
}

// modes orders a use case's cells: exploit before injection.
var modes = [...]Mode{ModeExploit, ModeInjection}

// matrixCells is the campaign's one cell enumerator: every cell keep
// admits (nil admits all), in dispatch order — version-major, registry
// spec order, exploit before injection.
func matrixCells(keep func(CellRef) bool) []cell {
	var cells []cell
	for _, v := range hv.Versions() {
		for _, s := range campaignPlan().specs {
			if !s.AppliesTo(v.Name) {
				continue
			}
			for _, mode := range modes {
				if keep == nil || keep(CellRef{v.Name, s.Name, mode}) {
					cells = append(cells, cell{v, s.Name, mode})
				}
			}
		}
	}
	return cells
}

// RunMatrixContext executes the full campaign — every version, every
// registry spec applicable to it, both modes, each cell in a fresh
// environment — across the pool. Under ContinueOnError it never fails:
// every cell appears in the returned entries, failed ones carrying their
// *CellError in Err with a nil Result.
func (r *Runner) RunMatrixContext(ctx context.Context) ([]MatrixEntry, error) {
	return r.runEntries(ctx, matrixCells(nil))
}

// CellRef identifies one campaign cell by name — the resumable-campaign
// currency: a run-ledger delta plan is a list of refs in dispatch order.
type CellRef struct {
	Version string
	UseCase string
	Mode    Mode
}

// RunCellRefs executes an explicit cell list, the delta-rerun entry
// point behind `repro -ledger -resume`. Refs run in the given order
// through the same dispatch and settle path as a full matrix, so a
// subset rerun is deterministic exactly like the campaign it patches —
// callers must pass refs in dispatch order (version-major, registry
// spec order, exploit before injection) for the settled artifacts to
// merge byte-identically. An unknown version name is an error before
// anything runs.
func (r *Runner) RunCellRefs(ctx context.Context, refs []CellRef) ([]MatrixEntry, error) {
	cells := make([]cell, 0, len(refs))
	for _, ref := range refs {
		v, err := hv.VersionByName(ref.Version)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell ref %s/%s/%s: %w", ref.Version, ref.UseCase, ref.Mode, err)
		}
		cells = append(cells, cell{v, ref.UseCase, ref.Mode})
	}
	return r.runEntries(ctx, cells)
}

// MatrixCells lists the campaign's cells that keep admits (nil admits
// all), in the dispatch order RunCellRefs expects.
func MatrixCells(keep func(CellRef) bool) []CellRef {
	cells := matrixCells(keep)
	refs := make([]CellRef, len(cells))
	for i, c := range cells {
		refs[i] = c.ref()
	}
	return refs
}
