package span

import (
	"fmt"
	"strings"
	"sync"
)

// CellSpans is one settled cell's contribution to the forest: its span
// tree, its failure class and its detection latency. Trees are nil for
// cells the engine had to abandon (hangs, cancellations) — their
// goroutines own the tree and may still be running, so the collector
// records only the classification. Where and when the cell ran is the
// scheduler timeline's record (events.Timeline), not the forest's.
type CellSpans struct {
	// Cell is the "version/use-case/mode" identity.
	Cell string `json:"cell"`
	// Class is the failure classification for failed cells, "" on
	// success.
	Class string `json:"class,omitempty"`
	// Latency is the cell's detection-latency measurement.
	Latency Latency `json:"latency"`
	// Tree is the cell's span tree, nil for abandoned cells.
	Tree *Tree `json:"-"`
}

// Collector assembles a campaign's span forest as one ordered cell
// list. It is safe for concurrent use by campaign workers: the runner
// announces the campaign's cells in dispatch order, and each cell
// settles into its announced slot in whatever order workers finish it.
// A cell settling without an announcement (Runner.RunContext single-cell
// paths) appends at the end. The zero value is NOT usable — build one
// with NewCollector.
type Collector struct {
	mu    sync.Mutex
	cells []*CellSpans // dispatch order; nil until the cell settles
	index map[string]int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{index: make(map[string]int)}
}

// Announce appends cells to the forest in dispatch order, as unsettled
// slots.
func (c *Collector) Announce(cells []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range cells {
		c.index[id] = len(c.cells)
		c.cells = append(c.cells, nil)
	}
}

// FinishCell records a settled cell in its announced slot, or at the
// end when no open slot awaits it.
func (c *Collector) FinishCell(cs *CellSpans) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[cs.Cell]; ok && c.cells[i] == nil {
		c.cells[i] = cs
		return
	}
	c.cells = append(c.cells, cs)
}

// Forest snapshots the settled cells in dispatch order; unsettled
// cells are dropped.
func (c *Collector) Forest() *Forest {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := &Forest{cells: make([]*CellSpans, 0, len(c.cells))}
	for _, cs := range c.cells {
		if cs != nil {
			f.cells = append(f.cells, cs)
		}
	}
	return f
}

// Forest is a snapshot of a campaign's span trees: campaign → cell →
// the per-cell trees.
type Forest struct {
	cells []*CellSpans
}

// Cells returns every settled cell in dispatch order.
func (f *Forest) Cells() []*CellSpans { return f.cells }

// Check runs the tree invariants over every collected cell.
func (f *Forest) Check() error {
	for _, cs := range f.Cells() {
		if err := cs.Tree.Check(); err != nil {
			return err
		}
	}
	return nil
}

// PhaseTotals sums the virtual cost (event-count span width) of each
// phase across the forest's cells. Deterministic at any worker count.
func (f *Forest) PhaseTotals() map[string]uint64 {
	out := make(map[string]uint64)
	for _, cs := range f.Cells() {
		for _, s := range cs.Tree.Spans() {
			if s.Kind == KindPhase {
				out[s.Name] += s.EndV - s.StartV
			}
		}
	}
	return out
}

// CellCost is one cell's virtual cost decomposition, the unit of the
// critical-path analysis.
type CellCost struct {
	// Cell is the cell identity.
	Cell string `json:"cell"`
	// TotalV is the cell root span's virtual width (total events).
	TotalV uint64 `json:"total_v"`
	// PhaseV maps phase name to virtual width.
	PhaseV map[string]uint64 `json:"phase_v"`
}

// cost decomposes one settled cell.
func (cs *CellSpans) cost() CellCost {
	cc := CellCost{Cell: cs.Cell, PhaseV: make(map[string]uint64)}
	for _, s := range cs.Tree.Spans() {
		switch {
		case s.Kind == KindCell:
			cc.TotalV = s.EndV - s.StartV
		case s.Kind == KindPhase:
			cc.PhaseV[s.Name] += s.EndV - s.StartV
		}
	}
	return cc
}

// CriticalPath is the deterministic critical-path analysis of a forest
// on an N-worker pool: which chain of cells bounds the campaign's
// completion in virtual time, and by how much.
//
// The engine's real scheduler is a work-queue — cells go to whichever
// worker frees up first, so the wall-time assignment is racy. The
// analysis replays the same policy deterministically in virtual time:
// cells dispatch in forest order, each to the worker with the least
// accumulated virtual cost (ties to the lowest worker index). The chain
// on the most loaded simulated worker is the critical path: no schedule
// of these cells at this pool size finishes before its last cell's
// chain completes.
type CriticalPath struct {
	// Workers is the simulated pool size.
	Workers int `json:"workers"`
	// TotalV is the summed virtual cost of every analyzed cell.
	TotalV uint64 `json:"total_v"`
	// MakespanV is the simulated completion time: the critical chain's
	// accumulated virtual cost.
	MakespanV uint64 `json:"makespan_v"`
	// Chain is the bounding worker's cell chain, in dispatch order.
	Chain []CellCost `json:"chain"`
	// Efficiency is TotalV / (Workers * MakespanV): 1.0 means the pool
	// never idles in virtual time.
	Efficiency float64 `json:"efficiency"`
}

// AnalyzeCriticalPath runs the deterministic critical-path analysis
// over the forest's cells that kept a tree, at the given pool size
// (clamped to [1, len(cells)]).
func AnalyzeCriticalPath(f *Forest, workers int) CriticalPath {
	cells := make([]*CellSpans, 0, len(f.cells))
	for _, cs := range f.cells {
		if cs.Tree != nil {
			cells = append(cells, cs)
		}
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) && len(cells) > 0 {
		workers = len(cells)
	}
	cp := CriticalPath{Workers: workers}
	load := make([]uint64, workers)
	chains := make([][]CellCost, workers)
	for _, cs := range cells {
		cc := cs.cost()
		cp.TotalV += cc.TotalV
		// Least-loaded worker, lowest index on ties.
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		load[w] += cc.TotalV
		chains[w] = append(chains[w], cc)
	}
	for i := range load {
		if load[i] > cp.MakespanV {
			cp.MakespanV = load[i]
			cp.Chain = chains[i]
		}
	}
	if cp.MakespanV > 0 {
		cp.Efficiency = float64(cp.TotalV) / (float64(workers) * float64(cp.MakespanV))
	}
	return cp
}

// Canonical renders the forest's deterministic structure: a header
// line, cell headers, then each tree's spans in pre-order with kind,
// name and virtual interval, indented by depth. Wall times and worker
// assignment are excluded, so the rendering is byte-identical at any
// worker count — it is the golden-pin and digest surface. The header
// keeps the "batch01" name the pinned digests were taken with.
func (f *Forest) Canonical() string {
	if len(f.cells) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "batch01 cells=%d\n", len(f.cells))
	for _, cs := range f.cells {
		writeCanonicalTree(&b, cs)
	}
	return b.String()
}

// writeCanonicalTree renders one cell's canonical lines.
func writeCanonicalTree(b *strings.Builder, cs *CellSpans) {
	if cs.Tree == nil {
		fmt.Fprintf(b, "  %s abandoned class=%s\n", cs.Cell, cs.Class)
		return
	}
	lat := "latency=-"
	if cs.Latency.Found {
		lat = fmt.Sprintf("latency=%d", cs.Latency.Events)
	}
	fmt.Fprintf(b, "  %s %s", cs.Cell, lat)
	if cs.Class != "" {
		fmt.Fprintf(b, " class=%s", cs.Class)
	}
	b.WriteString("\n")
	spans := cs.Tree.Spans()
	depth := make([]int, len(spans))
	for i := range spans {
		s := &spans[i]
		d := 0
		if s.Parent >= 0 {
			d = depth[s.Parent] + 1
		}
		depth[i] = d
		fmt.Fprintf(b, "  %s%s %q [%d,%d]", strings.Repeat("  ", d+1), s.Kind, s.Name, s.StartV, s.EndV)
		if s.Aborted {
			b.WriteString(" aborted")
		}
		b.WriteString("\n")
	}
}
