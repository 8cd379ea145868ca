package span_test

// The span tree's contract: every opened span closes exactly once —
// through its own End, through an enclosing End that force-closes
// forgotten children, or through Abort on a failing path — and the
// virtual-time structure nests properly. Check() is the oracle the
// campaign chaos suite runs over every salvaged tree; these tests pin
// what it accepts and what it rejects.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/span"
	"repro/internal/telemetry"
)

// clockTree builds a tree whose virtual clock the test advances by
// hand, so intervals are exact.
func clockTree(cell string) (*span.Tree, *uint64) {
	v := new(uint64)
	return span.NewTree(cell, func() uint64 { return *v }), v
}

func TestTreeLifecycle(t *testing.T) {
	tr, v := clockTree("4.6/XSA-1/exploit")
	if got := tr.Cell(); got != "4.6/XSA-1/exploit" {
		t.Errorf("Cell() = %q", got)
	}
	*v = 1
	boot := tr.Phase(span.PhaseBoot)
	*v = 3
	mm := tr.MMOp("alloc_range[8]")
	*v = 5
	tr.End(mm)
	*v = 6
	tr.End(boot)
	*v = 7
	attack := tr.Phase(span.PhaseInject)
	hc := tr.Hypercall("mmu_update")
	*v = 9
	tr.End(hc)
	tr.End(attack)
	assess := tr.Phase(span.PhaseAssess)
	aud := tr.Audit("XSA-1")
	*v = 11
	tr.End(aud)
	tr.End(assess)
	tr.Finish()

	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if tr.Open() != 0 {
		t.Errorf("Open() = %d after Finish", tr.Open())
	}
	spans := tr.Spans()
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want 7", len(spans))
	}
	// Pre-order: root first, IDs are creation indices, parents nest.
	root := spans[0]
	if root.Kind != span.KindCell || root.Parent != -1 || root.StartV != 0 || root.EndV != 11 {
		t.Errorf("root = %+v", root)
	}
	if spans[2].Kind != span.KindMMOp || spans[2].Parent != boot {
		t.Errorf("mm_op span = %+v, want parent %d", spans[2], boot)
	}
	if spans[2].StartV != 3 || spans[2].EndV != 5 {
		t.Errorf("mm_op interval = [%d,%d], want [3,5]", spans[2].StartV, spans[2].EndV)
	}
	if spans[6].Kind != span.KindAudit || spans[6].Name != "audit:XSA-1" {
		t.Errorf("audit span = %+v", spans[6])
	}
	for _, s := range spans {
		if s.Aborted {
			t.Errorf("span %d (%s %q) aborted on the happy path", s.ID, s.Kind, s.Name)
		}
	}
	if end, ok := tr.PhaseEnd(span.PhaseInject); !ok || end != 9 {
		t.Errorf("PhaseEnd(inject) = %d,%v, want 9,true", end, ok)
	}
	if _, ok := tr.PhaseEnd(span.PhaseExploit); ok {
		t.Error("PhaseEnd(exploit) found a phase this tree never opened")
	}
}

// A nil tree is the disabled state: every method no-ops and Start
// returns -1 so callers never branch.
func TestNilTreeNoops(t *testing.T) {
	var tr *span.Tree
	id := tr.Start(span.KindPhase, span.PhaseBoot)
	if id != -1 {
		t.Errorf("nil Start = %d, want -1", id)
	}
	tr.End(id)
	tr.End(0)
	tr.Abort()
	tr.Finish()
	if tr.Spans() != nil || tr.Open() != 0 || tr.Cell() != "" {
		t.Error("nil tree leaked state")
	}
	if err := tr.Check(); err != nil {
		t.Errorf("nil Check = %v", err)
	}
	if _, ok := tr.PhaseEnd(span.PhaseBoot); ok {
		t.Error("nil PhaseEnd found a phase")
	}
}

// Ending an outer span force-closes the children a failing path left
// open, marking them (and only them) aborted.
func TestEndClosesForgottenChildrenAborted(t *testing.T) {
	tr, v := clockTree("cell")
	phase := tr.Phase(span.PhaseBoot)
	inner := tr.Hypercall("mmu_update")
	*v = 4
	tr.End(phase) // inner never ended
	tr.Finish()
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	spans := tr.Spans()
	if !spans[inner].Aborted {
		t.Error("forgotten child not marked aborted")
	}
	if spans[phase].Aborted || spans[0].Aborted {
		t.Error("explicitly-ended spans marked aborted")
	}
	if spans[inner].EndV != 4 {
		t.Errorf("forgotten child EndV = %d, want 4", spans[inner].EndV)
	}
}

// Abort force-closes everything open, aborting all but the cell root.
func TestAbortClosesEverything(t *testing.T) {
	tr, v := clockTree("cell")
	tr.Phase(span.PhaseBoot)
	tr.Hypercall("mmu_update")
	*v = 9
	tr.Abort()
	if err := tr.Check(); err != nil {
		t.Fatalf("Check after Abort: %v", err)
	}
	spans := tr.Spans()
	if spans[0].Aborted {
		t.Error("cell root marked aborted; the cell did end")
	}
	for _, s := range spans[1:] {
		if !s.Aborted {
			t.Errorf("span %d (%s %q) not aborted", s.ID, s.Kind, s.Name)
		}
		if s.EndV != 9 {
			t.Errorf("span %d EndV = %d, want 9", s.ID, s.EndV)
		}
	}
}

// Double-End and out-of-range End are ignored; the counters stay
// balanced.
func TestEndIsIdempotentAndBoundsChecked(t *testing.T) {
	tr, _ := clockTree("cell")
	p := tr.Phase(span.PhaseBoot)
	tr.End(p)
	tr.End(p)  // double
	tr.End(99) // never existed
	tr.End(-5) // nil-tree sentinel range
	tr.Finish()
	tr.Finish() // double Finish
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// Check rejects the failure modes it exists to catch.
func TestCheckRejectsOpenSpans(t *testing.T) {
	tr, _ := clockTree("cell")
	tr.Phase(span.PhaseBoot)
	err := tr.Check()
	if err == nil || !strings.Contains(err.Error(), "still open") {
		t.Errorf("Check on open tree = %v, want still-open error", err)
	}
}

func TestDetectionLatency(t *testing.T) {
	build := func(attack string, endV uint64) *span.Tree {
		tr, v := clockTree("cell")
		if attack != "" {
			p := tr.Phase(attack)
			*v = endV
			tr.End(p)
		}
		tr.Finish()
		return tr
	}
	evidence := func(seq uint64) []telemetry.Event {
		return []telemetry.Event{
			{Kind: telemetry.KindScenarioStep, Seq: 1},
			{Kind: telemetry.KindVerdictEvidence, Seq: seq},
			{Kind: telemetry.KindVerdictEvidence, Seq: seq + 10}, // first wins
		}
	}

	lat := span.DetectionLatency(build(span.PhaseInject, 20), evidence(25))
	if !lat.Found || lat.TriggerV != 20 || lat.EvidenceV != 25 || lat.Events != 5 {
		t.Errorf("inject latency = %+v, want trigger=20 evidence=25 events=5", lat)
	}

	// Exploit phase is the fallback attack boundary.
	lat = span.DetectionLatency(build(span.PhaseExploit, 30), evidence(28))
	if !lat.Found || lat.Events != -2 {
		t.Errorf("exploit latency = %+v, want events=-2 (evidence mid-attack)", lat)
	}

	// No attack phase (cell failed in boot) or no evidence: not found.
	if lat := span.DetectionLatency(build("", 0), evidence(5)); lat.Found {
		t.Errorf("latency without attack phase = %+v, want not found", lat)
	}
	if lat := span.DetectionLatency(build(span.PhaseInject, 20), nil); lat.Found {
		t.Errorf("latency without evidence = %+v, want not found", lat)
	}
	if lat := span.DetectionLatency(nil, evidence(5)); lat.Found {
		t.Errorf("nil-tree latency = %+v, want not found", lat)
	}
}

// finishedCell builds a settled cell whose root span is exactly totalV
// wide, with a single boot phase covering it.
func finishedCell(id string, totalV uint64) *span.CellSpans {
	tr, v := clockTree(id)
	p := tr.Phase(span.PhaseBoot)
	*v = totalV
	tr.End(p)
	tr.Finish()
	return &span.CellSpans{Cell: id, Tree: tr}
}

// cellOrder lists a forest's cells.
func cellOrder(f *span.Forest) string {
	var order []string
	for _, cs := range f.Cells() {
		order = append(order, cs.Cell)
	}
	return strings.Join(order, ",")
}

func TestCollectorAssemblesCellsInDispatchOrder(t *testing.T) {
	c := span.NewCollector()
	// A cell settling before any announcement appends at the end.
	c.FinishCell(finishedCell("early", 6))
	c.Announce([]string{"a", "b", "c", "d"})
	// Cells settle out of order; the forest keeps dispatch order.
	c.FinishCell(finishedCell("c", 3))
	c.FinishCell(finishedCell("a", 1))
	c.FinishCell(finishedCell("b", 2))
	// A cell outside the announced list appends after it.
	c.FinishCell(finishedCell("stray", 7))

	// The unsettled cell d is dropped.
	f := c.Forest()
	if err := f.Check(); err != nil {
		t.Fatalf("forest Check: %v", err)
	}
	if got, want := cellOrder(f), "early,a,b,c,stray"; got != want {
		t.Errorf("forest cell order = %s, want %s", got, want)
	}
	// A settle into an already settled name appends; d settles into
	// its slot.
	c.FinishCell(finishedCell("a", 9))
	c.FinishCell(finishedCell("d", 4))
	if got, want := cellOrder(c.Forest()), "early,a,b,c,d,stray,a"; got != want {
		t.Errorf("forest cell order = %s, want %s", got, want)
	}
}

// The critical-path analysis replays least-loaded dispatch
// deterministically: known costs produce a known chain.
func TestAnalyzeCriticalPath(t *testing.T) {
	c := span.NewCollector()
	for _, cell := range []struct {
		id string
		v  uint64
	}{{"c1", 5}, {"c2", 4}, {"c3", 3}, {"c4", 2}, {"c5", 1}} {
		c.FinishCell(finishedCell(cell.id, cell.v))
	}
	c.FinishCell(&span.CellSpans{Cell: "hung", Class: "hang"}) // no tree: not analyzed
	f := c.Forest()
	cp := span.AnalyzeCriticalPath(f, 2)
	// Dispatch replay: c1->w0(5), c2->w1(4), c3->w1(7), c4->w0(7),
	// c5 ties -> w0(8). Critical chain is w0: c1,c4,c5.
	if cp.TotalV != 15 || cp.MakespanV != 8 {
		t.Errorf("total=%d makespan=%d, want 15/8", cp.TotalV, cp.MakespanV)
	}
	var chain []string
	for _, cc := range cp.Chain {
		chain = append(chain, cc.Cell)
	}
	if strings.Join(chain, ",") != "c1,c4,c5" {
		t.Errorf("chain = %v, want c1,c4,c5", chain)
	}
	if want := 15.0 / 16.0; cp.Efficiency != want {
		t.Errorf("efficiency = %v, want %v", cp.Efficiency, want)
	}

	// Pool clamps: zero/negative to 1, oversize to the cell count.
	if cp := span.AnalyzeCriticalPath(f, 0); cp.Workers != 1 || cp.MakespanV != 15 {
		t.Errorf("workers=0: %+v, want serial makespan 15", cp)
	}
	if cp := span.AnalyzeCriticalPath(f, 64); cp.Workers != 5 || cp.MakespanV != 5 {
		t.Errorf("workers=64: workers=%d makespan=%d, want 5/5", cp.Workers, cp.MakespanV)
	}
}

// Canonical output excludes wall times (worker placement lives on the
// scheduler timeline, never in the forest), so two forests with
// identical virtual structure render byte-identically; it keeps the
// one "batch01" header line the pinned forest digests were taken with.
func TestCanonicalExcludesWallAndWorker(t *testing.T) {
	build := func() string {
		c := span.NewCollector()
		c.Announce([]string{"a", "b"})
		c.FinishCell(finishedCell("a", 4))
		c.FinishCell(&span.CellSpans{Cell: "b", Class: "hang"})
		return c.Forest().Canonical()
	}
	one := build()
	time.Sleep(time.Millisecond) // the second forest's wall times differ
	if two := build(); one != two {
		t.Errorf("canonical differs with wall times:\n%s\nvs\n%s", one, two)
	}
	for _, want := range []string{
		"batch01 cells=2\n",
		"  a latency=-\n",
		`    cell "a" [0,4]`,
		`      phase "boot" [0,4]`,
		"  b abandoned class=hang\n",
	} {
		if !strings.Contains(one, want) {
			t.Errorf("canonical missing %q:\n%s", want, one)
		}
	}
	if got := strings.Count(one, "batch01"); got != 1 {
		t.Errorf("canonical carries %d batch01 headers, want 1:\n%s", got, one)
	}
	if got := span.NewCollector().Forest().Canonical(); got != "" {
		t.Errorf("empty forest renders %q, want nothing", got)
	}
}
