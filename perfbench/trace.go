package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/ledger"
	"repro/internal/mm"
	"repro/internal/monitor"
	"repro/internal/pagetable"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
)

// The traced run. It times the benchmark's own calls into each layer's
// public functions and reads the counts the layers already export:
// telemetry.Registry counters, CellProfiles, coverage reports and span
// trees. Every traced run, whatever its workload, runs the same layer
// decomposition, so the per-layer metrics are the same set on each
// workload; only trace.overhead_ms belongs to the selected workload.
//
// Host time (what the simulator costs) and simulated work (the event
// counts of the modelled hypervisor) are kept apart: a speed-only change
// must leave every simulated count identical, and the run checks that
// they repeat across passes and worker counts.

// Repetitions of the decomposition's passes.
const (
	schedReps   = 200  // plain campaigns under the scheduling observer, per pool size
	countReps   = 2    // registry-traced plain campaigns at nproc workers
	ledgerReps  = 5    // traced ledger campaigns at nproc workers
	fuzzReps    = 3    // hypercall-baseline campaigns per version
	fuzzTrials  = 40   // hypercalls per hypercall-baseline campaign
	fuzzSeed    = 2023 // the seed `repro -fuzz` uses
	replayReps  = 20   // public-call replays of every matrix cell
	probeBatch  = 200  // operations per timed batch of a micro-probe
	probeRounds = 21   // timed batches per micro-probe
)

// sink keeps probed results alive so the calls are not optimized away.
var sink any

func traced(ctx context.Context, o options, scratch string, stdout io.Writer) (*result, error) {
	t := &tally{log: stdout}
	res := &result{}
	n := workers()

	overhead, err := tracingOverhead(ctx, o, n, scratch, t)
	if err != nil {
		return nil, err
	}
	res.add("trace.overhead_ms", "ms", overhead)

	plain, err := newMatrixPlain(n, false)
	if err != nil {
		return nil, err
	}
	sched := schedPass(ctx, plain, n, t)
	serial := schedPass(ctx, plain, 1, t)
	counts := countPass(ctx, plain, n, t)
	lg := ledgerPass(ctx, n, scratch, t)
	rejectShare := fuzzPass(t)
	rp, err := replayPass()
	if err != nil {
		return nil, err
	}
	pr, err := probes()
	if err != nil {
		return nil, err
	}

	cells := float64(counts.cells)
	per := func(counter string) float64 { return float64(counts.counters[counter]) / cells }
	var hypercalls uint64
	for name, v := range counts.counters {
		if strings.HasPrefix(name, "hypercall.") && name != "hypercall.errors" {
			hypercalls += v
		}
	}
	runner1 := serial.perCellUS() // per-cell runner time, one worker
	stageSum := rp.stageSumUS
	cellBudget := median(sched.campaignMS) * 1e3 * float64(n) / float64(sched.cells)

	res.add("campaign.cell_us", "us", median(sched.cellUS))
	res.add("campaign.queue_wait_us", "us", median(sched.queueUS))
	res.add("campaign.worker_busy_share", "ratio", median(sched.busyShare))
	res.add("campaign.fork_us", "us", median(rp.forkUS))
	res.add("campaign.fork_allocs", "count", pr.forkAllocs)
	res.add("campaign.boot_us", "us", median(pr.bootUS))
	res.add("campaign.boot_allocs", "count", pr.bootAllocs)
	res.add("campaign.snapshot_build_ms", "ms", median(pr.snapshotMS))
	res.add("campaign.runner_overhead_us", "us", runner1-stageSum)
	res.add("exploits.run_us.exploit", "us", median(rp.runUS[campaign.ModeExploit]))
	res.add("exploits.run_us.injection", "us", median(rp.runUS[campaign.ModeInjection]))
	res.add("exploits.steps_per_cell", "count", per("scenario.steps"))
	res.add("monitor.assess_us", "us", median(rp.assessUS))
	res.add("monitor.evidence_per_cell", "count", per("monitor.evidence"))
	res.add("hv.hypercall_ns", "ns", pr.hypercallNS)
	res.add("hv.mmu_update_ns", "ns", pr.mmuUpdateNS)
	res.add("hv.hypercalls_per_cell", "count", float64(hypercalls)/cells)
	res.add("hv.hypercall_error_share", "ratio", rejectShare)
	res.add("pagetable.translate_ns", "ns", pr.translateNS)
	res.add("pagetable.walk_faults_per_cell", "count", per("walk.fault"))
	res.add("pagetable.validation_rejects_per_cell", "count", per("validation.reject"))
	res.add("mm.alloc_ns", "ns", pr.allocNS)
	res.add("mm.frames_alloc_per_cell", "count", per("frames.alloc"))
	res.add("mm.pagetype_gets_per_cell", "count", per("pagetype.get"))
	res.add("inject.write_linear_ns", "ns", pr.writeLinearNS)
	res.add("inject.ops_per_cell", "count", per("injector.ops"))
	res.add("telemetry.recorder_new_us", "us", median(pr.recorderUS))
	res.add("telemetry.recorder_bytes", "B", pr.recorderBytes)
	res.add("telemetry.events_per_cell", "count", float64(counts.retained)/cells)
	res.add("telemetry.ring_fill_share", "ratio", float64(counts.retained)/cells/telemetry.DefaultRingCapacity)
	res.add("telemetry.dropped_events", "count", float64(counts.dropped))
	res.add("coverage.edges_per_cell", "count", lg.edgesPerCell)
	res.add("coverage.union_edges", "count", float64(lg.unionEdges))
	res.add("coverage.report_us", "us", median(lg.reportUS))
	res.add("span.spans_per_cell", "count", lg.spansPerCell)
	res.add("span.virtual_len_per_cell", "events", lg.virtualLenPerCell)
	res.add("tracediff.canon_us", "us", median(lg.canonUS))
	res.add("tracediff.equivalence_ms", "ms", median(lg.timings.equivalenceMS))
	res.add("ledger.append_us", "us", median(lg.appendUS))
	res.add("ledger.journal_bytes_per_cell", "B", median(lg.timings.journalBytes))
	res.add("ledger.close_ms", "ms", median(lg.timings.closeMS))
	res.add("ledger.diff_ms", "ms", median(lg.timings.diffMS))
	res.add("sim.events_per_cell", "count", float64(counts.emitted)/cells)
	res.add("sim.host_ns_per_event", "ns", runner1*1e3/(float64(counts.emitted)/cells))
	res.add("trace.unattributed_share", "ratio", 1-runner1/cellBudget)

	fmt.Fprintf(stdout, "traced run  workload %s  seed %d  workers %d\n", o.workload, o.seed, n)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "  %-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	res.attempted, res.failed = t.attempted, t.failed
	return res, nil
}

// tracingOverhead is the selected workload's traced minus untraced
// median campaign time. The two kinds of campaign alternate for the
// run's seconds, so drift in the machine's speed and the heap the
// collector carries over reach both alike.
func tracingOverhead(ctx context.Context, o options, n int, scratch string, t *tally) (float64, error) {
	plainW, err := newWorkload(o.workload, n, scratch)
	if err != nil {
		return 0, err
	}
	tracedW, err := newWorkload(o.workload, n, scratch)
	if err != nil {
		return 0, err
	}
	switch w := tracedW.(type) {
	case *matrixPlain:
		w.customize = func(r *campaign.Runner) {
			r.Telemetry = telemetry.NewRegistry()
			r.Sched = &schedRecorder{}
		}
	case *matrixLedger:
		w.observe = func(lw *ledger.Writer) campaign.CellObserver { return &timedObserver{next: lw} }
		w.customize = func(r *campaign.Runner) {
			r.Telemetry = telemetry.NewRegistry()
			r.Sched = &schedRecorder{}
			r.Spans = span.NewCollector()
		}
		w.timings = &ledgerTimings{}
	}
	once(ctx, plainW, t)
	once(ctx, tracedW, t)
	var untraced, tracedS []sample
	begin := time.Now()
	for {
		el := time.Since(begin).Seconds()
		if (el >= float64(o.seconds) && len(untraced) >= 20 && len(tracedS) >= 20) || el >= maxLoopSeconds {
			break
		}
		if s, ok := once(ctx, plainW, t); ok {
			untraced = append(untraced, s)
		}
		if s, ok := once(ctx, tracedW, t); ok {
			tracedS = append(tracedS, s)
		}
	}
	if len(untraced) == 0 || len(tracedS) == 0 {
		return 0, fmt.Errorf("tracing overhead: no campaign completed")
	}
	return summarize(tracedS).p50 - summarize(untraced).p50, nil
}

// schedRecorder is a campaign.SchedObserver that keeps every settled
// cell's queue wait and run time.
type schedRecorder struct {
	mu      sync.Mutex
	cells   []string
	queueNS []int64
	runNS   []int64
}

func (s *schedRecorder) BatchQueued([]string)              {}
func (s *schedRecorder) CellDispatched(string, int, int64) {}
func (s *schedRecorder) CellSettled(cell string, _ int, queueNS, runNS int64, _ *telemetry.CellProfile, _ *campaign.CellError) {
	s.mu.Lock()
	s.cells = append(s.cells, cell)
	s.queueNS = append(s.queueNS, queueNS)
	s.runNS = append(s.runNS, runNS)
	s.mu.Unlock()
}

// schedStats is the scheduling view of plain campaigns.
type schedStats struct {
	cells                      int // per campaign
	campaignMS                 []float64
	cellUS, queueUS, busyShare []float64
	byCell                     map[string][]float64 // run time in µs
}

// perCellUS is the mean over cells of each cell's median run time.
func (st schedStats) perCellUS() float64 {
	var sum float64
	for _, us := range st.byCell {
		sum += median(us)
	}
	return sum / float64(len(st.byCell))
}

// schedPass runs plain campaigns on a pool of the given size with only
// the scheduling observer attached, which gives cells no recorder.
func schedPass(ctx context.Context, plain *matrixPlain, workers int, t *tally) schedStats {
	st := schedStats{byCell: map[string][]float64{}}
	w := *plain
	w.workers = workers
	for i := 0; i < schedReps; i++ {
		rec := &schedRecorder{}
		w.customize = func(r *campaign.Runner) { r.Sched = rec }
		s, ok := once(ctx, &w, t)
		if !ok {
			continue
		}
		st.cells = s.cells
		st.campaignMS = append(st.campaignMS, s.ms)
		var busy int64
		for i := range rec.runNS {
			us := float64(rec.runNS[i]) / 1e3
			st.cellUS = append(st.cellUS, us)
			st.byCell[rec.cells[i]] = append(st.byCell[rec.cells[i]], us)
			st.queueUS = append(st.queueUS, float64(rec.queueNS[i])/1e3)
			busy += rec.runNS[i]
		}
		st.busyShare = append(st.busyShare, float64(busy)/1e6/(s.ms*float64(workers)))
	}
	return st
}

// simCounts is the simulated work of one plain campaign.
type simCounts struct {
	cells                      int
	counters                   map[string]uint64
	perCell                    map[string]uint64 // events emitted, by cell
	emitted, retained, dropped uint64
}

func (c simCounts) String() string {
	var b strings.Builder
	for _, k := range sortedKeys(c.counters) {
		fmt.Fprintf(&b, "%s=%d ", k, c.counters[k])
	}
	for _, k := range sortedKeys(c.perCell) {
		fmt.Fprintf(&b, "%s:%d ", k, c.perCell[k])
	}
	return b.String()
}

// countPass runs registry-traced plain campaigns, countReps at nproc
// workers and one at one worker, and checks that every simulated count
// repeats exactly.
func countPass(ctx context.Context, plain *matrixPlain, n int, t *tally) simCounts {
	var first simCounts
	for i, workers := range pools(countReps, n) {
		reg := telemetry.NewRegistry()
		w := *plain
		w.workers = workers
		w.customize = func(r *campaign.Runner) { r.Telemetry = reg }
		s, ok := once(ctx, &w, t)
		if !ok {
			continue
		}
		c := simCounts{cells: s.cells, counters: map[string]uint64{}, perCell: map[string]uint64{}}
		for _, cv := range reg.Snapshot() {
			c.counters[cv.Name] = cv.Value
		}
		for _, p := range reg.CellProfiles() {
			c.perCell[p.Cell] = uint64(len(p.Events)) + p.DroppedEvents
			c.emitted += uint64(len(p.Events)) + p.DroppedEvents
			c.retained += uint64(len(p.Events))
			c.dropped += p.DroppedEvents
		}
		if i == 0 {
			first = c
			continue
		}
		t.note(agree("registry counters and events per cell", fmt.Sprintf("%d workers", workers), first.String(), c.String()))
	}
	return first
}

// pools lists the pool sizes of a pass that checks simulated work
// across worker counts: reps campaigns at n workers, then one at one.
func pools(reps, n int) []int {
	out := make([]int, 0, reps+1)
	for i := 0; i < reps; i++ {
		out = append(out, n)
	}
	return append(out, 1)
}

// agree reports a difference between two renderings of simulated work
// that must be identical, naming the first field that differs.
func agree(what, pass, want, got string) error {
	if want == got {
		return nil
	}
	w, g := strings.Fields(want), strings.Fields(got)
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	field := func(f []string) string {
		if i < len(f) {
			return f[i]
		}
		return "(none)"
	}
	return fmt.Errorf("simulated work differs: %s on the %s pass: first run has %s, this one %s", what, pass, field(w), field(g))
}

// timedObserver wraps the ledger writer, timing each append and keeping
// each settled cell's coverage, span length and effect stream input.
type timedObserver struct {
	next campaign.CellObserver

	mu       sync.Mutex
	appendUS []float64
	edges    []int
	spanV    map[string]uint64
	profiles []*telemetry.CellProfile
}

func (o *timedObserver) CellSettled(cell string, res *campaign.RunResult, cerr *campaign.CellError, cov *coverage.Map, lat span.Latency, spanV uint64, wall time.Duration) {
	sw := startSpan()
	o.next.CellSettled(cell, res, cerr, cov, lat, spanV, wall)
	us := sw.us()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.appendUS = append(o.appendUS, us)
	if cov != nil {
		o.edges = append(o.edges, cov.Len())
	}
	if o.spanV == nil {
		o.spanV = make(map[string]uint64)
	}
	o.spanV[cell] = spanV
	if res != nil && res.Profile != nil {
		o.profiles = append(o.profiles, res.Profile)
	}
}

// ledgerStats is the instrumentation view of ledger campaigns.
type ledgerStats struct {
	timings           ledgerTimings
	appendUS, canonUS []float64
	reportUS          []float64
	edgesPerCell      float64
	unionEdges        int
	spansPerCell      float64
	virtualLenPerCell float64
}

// ledgerPass runs traced ledger campaigns, ledgerReps at nproc workers
// and one at one worker, and checks that union coverage and span
// lengths repeat exactly.
func ledgerPass(ctx context.Context, n int, scratch string, t *tally) ledgerStats {
	var st ledgerStats
	var firstCov, firstSpans string
	for i, workers := range pools(ledgerReps, n) {
		w := newMatrixLedger(workers, scratch)
		var obs *timedObserver
		coll := span.NewCollector()
		w.observe = func(lw *ledger.Writer) campaign.CellObserver {
			obs = &timedObserver{next: lw}
			return obs
		}
		w.customize = func(r *campaign.Runner) { r.Spans = coll }
		w.timings = &st.timings
		s, ok := once(ctx, w, t)
		if !ok {
			continue
		}
		st.appendUS = append(st.appendUS, obs.appendUS...)
		rec := st.timings.record
		sw := startSpan()
		rep := rec.CoverageReport()
		st.reportUS = append(st.reportUS, sw.us())
		for _, p := range obs.profiles {
			version, _, _ := strings.Cut(p.Cell, "/")
			sw := startSpan()
			effects, audit := tracediff.CanonicalStreams(version, campaign.MachineFrames, p.Events)
			st.canonUS = append(st.canonUS, sw.us())
			sink = [][]string{effects, audit}
		}
		var spans, vlen int
		for _, cs := range coll.Forest().Cells() {
			spans += len(cs.Tree.Spans())
		}
		for _, v := range obs.spanV {
			vlen += int(v)
		}
		edges := 0
		for _, e := range obs.edges {
			edges += e
		}
		covKey := fmt.Sprintf("%d %s", rep.TotalEdges, rep.Digest)
		spanKey := fmt.Sprint(obs.spanV)
		if i == 0 {
			firstCov, firstSpans = covKey, spanKey
			st.unionEdges = rep.TotalEdges
			st.edgesPerCell = float64(edges) / float64(s.cells)
			st.spansPerCell = float64(spans) / float64(s.cells)
			st.virtualLenPerCell = float64(vlen) / float64(s.cells)
			continue
		}
		pass := fmt.Sprintf("%d workers", workers)
		t.note(agree("union coverage edges", pass, firstCov, covKey))
		t.note(agree("span virtual lengths", pass, firstSpans, spanKey))
	}
	return st
}

// fuzzPass runs the hypercall-attack baseline on every version fuzzReps
// times and returns the share of its hypercalls the interface rejected.
// Each version's distribution must account for every trial and repeat
// exactly. It always uses fuzzSeed, so the share is a fixed simulated
// figure that moves only when the hypercall interface's behaviour does.
func fuzzPass(t *tally) float64 {
	var rejected, trials int
	first := map[string]string{}
	for i := 0; i < fuzzReps; i++ {
		for _, v := range hv.Versions() {
			d, err := campaign.HypercallFuzzCampaign(v, fuzzTrials, fuzzSeed)
			if err == nil && d[campaign.ClassRejected]+d[campaign.ClassAccepted]+d[campaign.ClassCrash] != fuzzTrials {
				err = fmt.Errorf("hypercall baseline on %s: %v does not sum to %d trials", v.Name, d, fuzzTrials)
			}
			if !t.note(err) {
				continue
			}
			rejected += d[campaign.ClassRejected]
			trials += fuzzTrials
			got := strings.Join(strings.Fields(fmt.Sprint(d)), "") // fmt prints maps in key order
			if want, ok := first[v.Name]; ok {
				t.note(agree("hypercall baseline distribution", "version "+v.Name, want, got))
			} else {
				first[v.Name] = got
			}
		}
	}
	return float64(rejected) / float64(trials)
}

// replayStats is the stage view of a public-call replay of every matrix
// cell: fork, scenario, monitor.
type replayStats struct {
	forkUS, assessUS []float64
	runUS            map[campaign.Mode][]float64
	stageSumUS       float64 // mean over cells of the per-cell median stage sum
}

// replayPass replays every matrix cell through the public calls the
// runner makes: NewForkedEnvironment, ScenarioEnv, Scenario.Run and
// monitor.Assess, timing each stage.
func replayPass() (replayStats, error) {
	st := replayStats{runUS: map[campaign.Mode][]float64{}}
	versions := map[string]hv.Version{}
	for _, v := range hv.Versions() {
		versions[v.Name] = v
	}
	refs := ledger.PlanDelta(nil, ledger.CurrentConfig(0, false)).Rerun
	sums := make([][]float64, len(refs))
	for rep := 0; rep < replayReps; rep++ {
		for i, ref := range refs {
			scen, err := exploits.ScenarioByName(ref.UseCase)
			if err != nil {
				return st, err
			}
			sw := startSpan()
			e, recycle, err := campaign.NewForkedEnvironment(versions[ref.Version], ref.Mode)
			if err != nil {
				return st, err
			}
			env, err := e.ScenarioEnv(ref.Mode)
			if err != nil {
				return st, err
			}
			fork := sw.us()
			sw = startSpan()
			out := scen.Run(env)
			runUS := sw.us()
			sw = startSpan()
			sink = monitor.Assess(e.HV, e.Guests, out)
			assess := sw.us()
			recycle()
			st.forkUS = append(st.forkUS, fork)
			st.runUS[ref.Mode] = append(st.runUS[ref.Mode], runUS)
			st.assessUS = append(st.assessUS, assess)
			sums[i] = append(sums[i], fork+runUS+assess)
		}
	}
	for _, s := range sums {
		st.stageSumUS += median(s)
	}
	st.stageSumUS /= float64(len(refs))
	return st, nil
}

// probeStats holds the micro-probes of single public calls.
type probeStats struct {
	forkAllocs, bootAllocs float64
	bootUS, snapshotMS     []float64
	recorderUS             []float64
	recorderBytes          float64
	hypercallNS            float64
	mmuUpdateNS            float64
	translateNS            float64
	allocNS                float64
	writeLinearNS          float64
}

// perOp times probeRounds batches of probeBatch calls of op and returns
// the median time per call.
func perOp(op func(i int) error) (float64, error) {
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		sw := startSpan()
		for i := 0; i < probeBatch; i++ {
			if err := op(i); err != nil {
				return 0, err
			}
		}
		rounds = append(rounds, sw.ns()/probeBatch)
	}
	return median(rounds), nil
}

// allocsPer returns the heap objects and bytes one call of op allocates,
// averaged over n calls.
func allocsPer(n int, op func() error) (allocs, bytes float64, err error) {
	m0 := readMem()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	allocs, bytes = perCell(m0, readMem(), n)
	return allocs, bytes, nil
}

func probes() (probeStats, error) {
	st := probeStats{bootUS: make([]float64, 0, 30), recorderUS: make([]float64, 0, 20)}
	var err error
	modes := []campaign.Mode{campaign.ModeExploit, campaign.ModeInjection}

	// Fork and boot, on every (version, mode).
	for _, v := range hv.Versions() {
		for _, m := range modes {
			a, _, err := allocsPer(100, func() error {
				_, recycle, err := campaign.NewForkedEnvironment(v, m)
				if err == nil {
					recycle()
				}
				return err
			})
			if err != nil {
				return st, err
			}
			st.forkAllocs += a / 6
			a, _, err = allocsPer(5, func() error {
				sw := startSpan()
				e, err := campaign.NewEnvironment(v, m)
				st.bootUS = append(st.bootUS, sw.us())
				sink = e
				return err
			})
			if err != nil {
				return st, err
			}
			st.bootAllocs += a / 6
			sw := startSpan()
			if err := campaign.BuildSnapshot(v, m); err != nil {
				return st, err
			}
			st.snapshotMS = append(st.snapshotMS, sw.ms())
		}
	}

	// The recorder every instrumented cell allocates.
	_, st.recorderBytes, err = allocsPer(20, func() error {
		sw := startSpan()
		sink = telemetry.NewRecorder(0)
		st.recorderUS = append(st.recorderUS, sw.us())
		return nil
	})
	if err != nil {
		return st, err
	}

	// Hypercall dispatch and page walk on a fork.
	e, recycle, err := campaign.NewForkedEnvironment(hv.Version46(), campaign.ModeExploit)
	if err != nil {
		return st, err
	}
	d := e.Attacker.Domain()
	if st.hypercallNS, err = perOp(func(int) error { return d.Hypercall(hv.HypercallConsoleIO, "bench") }); err != nil {
		return st, err
	}
	va := d.PhysmapVA(5)
	if st.translateNS, err = perOp(func(int) error {
		_, err := e.HV.Walker().Translate(d.CR3(), va, pagetable.AccessRead, true)
		return err
	}); err != nil {
		return st, err
	}
	recycle()

	if st.mmuUpdateNS, err = mmuUpdateProbe(); err != nil {
		return st, err
	}

	// The injector's linear write into an unused IDT slot.
	e, recycle, err = campaign.NewForkedEnvironment(hv.Version46(), campaign.ModeInjection)
	if err != nil {
		return st, err
	}
	dst := e.HV.IDTR().Base + 0x700
	if st.writeLinearNS, err = perOp(func(i int) error { return e.Injector.WriteLinear64(dst, uint64(i)) }); err != nil {
		return st, err
	}
	recycle()

	// One Alloc/Free cycle on a half-full machine.
	mem, err := mm.NewMemory(campaign.MachineFrames)
	if err != nil {
		return st, err
	}
	for i := 0; i < campaign.MachineFrames/2; i++ {
		if _, err := mem.Alloc(1); err != nil {
			return st, err
		}
	}
	st.allocNS, err = perOp(func(int) error {
		mfn, err := mem.Alloc(1)
		if err != nil {
			return err
		}
		return mem.Free(mfn)
	})
	return st, err
}

// mmuUpdateProbe times one validated PTE update on a fork: each
// hypercall maps a frame and unmaps it again, so reference counts stay
// balanced, and the result is per update.
func mmuUpdateProbe() (float64, error) {
	e, recycle, err := campaign.NewForkedEnvironment(hv.Version48(), campaign.ModeExploit)
	if err != nil {
		return 0, err
	}
	defer recycle()
	d := e.Attacker.Domain()
	pfn, err := d.AllocPage()
	if err != nil {
		return 0, err
	}
	target, err := d.P2M().Lookup(pfn)
	if err != nil {
		return 0, err
	}
	base, err := pagetable.LeafEntryAddr(e.HV.Memory(), d.CR3(), d.PhysmapVA(0))
	if err != nil {
		return 0, err
	}
	ptr := base + mm.PhysAddr((uint64(d.Frames())+30)*pagetable.EntrySize)
	entry := pagetable.NewEntry(target, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser)
	ns, err := perOp(func(int) error {
		return d.Hypercall(hv.HypercallMMUUpdate, &hv.MMUUpdateArgs{
			Updates: []hv.MMUUpdate{{Ptr: ptr, Val: entry}, {Ptr: ptr, Val: 0}},
		})
	})
	return ns / 2, err
}
