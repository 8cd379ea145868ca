package coverage

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// Collector aggregates per-cell coverage maps across a campaign. It
// mirrors span.Collector's batch discipline: the runner announces each
// batch's cells in dispatch order via StartBatch, workers hand in
// finished maps via FinishCell in whatever order they complete, and
// Report settles everything into dispatch order — so union membership,
// first-witness cells and per-cell new-edge attribution are identical
// at any worker count.
type Collector struct {
	mu      sync.Mutex
	batches []*batch
}

type batch struct {
	order []string
	cells map[string]*cellEntry
}

type cellEntry struct {
	m *Map
	// edges, when non-nil, is the cell's settled edge list, used in
	// place of m (see FinishCellEdges).
	edges []Edge
	done  bool
}

// NewCollector returns an empty campaign coverage collector.
func NewCollector() *Collector { return &Collector{} }

// StartBatch announces the next batch of cells in dispatch order.
func (c *Collector) StartBatch(cells []string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &batch{order: append([]string(nil), cells...), cells: make(map[string]*cellEntry, len(cells))}
	for _, id := range cells {
		b.cells[id] = &cellEntry{}
	}
	c.batches = append(c.batches, b)
}

// FinishCell records a cell's finished map (nil for a cell that was
// abandoned before producing coverage). A cell the runner never
// announced — the single-run path — settles into an implicit one-cell
// batch, preserving overall dispatch order.
func (c *Collector) FinishCell(cell string, m *Map) {
	c.finish(cell, cellEntry{m: m, done: true})
}

// FinishCellEdges is FinishCell for coverage already settled into an
// edge list, such as a cell's persisted list read back from the run
// ledger, without rebuilding a Map. nil means the cell produced no
// coverage. The report shares a list in canonical order with no
// repeated edge, which is what Edges returns; any other list is
// canonicalized through FromEdges first.
func (c *Collector) FinishCellEdges(cell string, edges []Edge) {
	if edges != nil && !isCanonical(edges) {
		edges = FromEdges(edges).Edges()
	}
	c.finish(cell, cellEntry{edges: edges, done: true})
}

func (c *Collector) finish(cell string, settled cellEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.batches) - 1; i >= 0; i-- {
		if e, ok := c.batches[i].cells[cell]; ok && !e.done {
			*e = settled
			return
		}
	}
	b := &batch{order: []string{cell}, cells: map[string]*cellEntry{cell: &settled}}
	c.batches = append(c.batches, b)
}

// isCanonical reports whether edges are strictly in canonical
// (family, name) order.
func isCanonical(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		if (edgeKey{edges[i-1].Family, edges[i-1].Name}).compare(edgeKey{edges[i].Family, edges[i].Name}) >= 0 {
			return false
		}
	}
	return true
}

// CellCoverage is one cell's settled coverage in a Report.
type CellCoverage struct {
	Cell string `json:"cell"`
	// Edges is the cell's full sorted edge list with counts.
	Edges []Edge `json:"edges,omitempty"`
	// NewEdges counts edges first witnessed by this cell, attributed
	// in dispatch order.
	NewEdges int `json:"new_edges"`
	// Digest is the canonical digest of this cell's edge list.
	Digest string `json:"digest"`
}

// UnionEdge is one edge of the campaign union with attribution.
type UnionEdge struct {
	Family Family `json:"family"`
	Name   string `json:"name"`
	// Count sums the edge's hits across all cells.
	Count uint64 `json:"count"`
	// Cells counts how many cells witnessed the edge.
	Cells int `json:"cells"`
	// FirstCell is the dispatch-order first witness.
	FirstCell string `json:"first_cell"`
}

// Report is the settled campaign coverage: per-cell maps in dispatch
// order plus the attributed union. It is the `-coverage cov.json`
// artifact and the `/coverage` endpoint payload.
type Report struct {
	TotalEdges int            `json:"total_edges"`
	Digest     string         `json:"digest"`
	Families   []FamilyCount  `json:"families"`
	Cells      []CellCoverage `json:"cells"`
	Union      []UnionEdge    `json:"union"`
}

// FamilyCount is the number of distinct union edges in one family.
type FamilyCount struct {
	Family Family `json:"family"`
	Edges  int    `json:"edges"`
}

// Report settles the collected maps into dispatch order and computes
// the union with first-witness attribution. It may be called while the
// campaign is live (the /coverage endpoint does); unfinished cells
// appear with empty coverage until they settle.
func (c *Collector) Report() *Report {
	if c == nil {
		return &Report{}
	}
	c.mu.Lock()
	type settled struct {
		id    string
		m     *Map
		edges []Edge
	}
	var cells []settled
	for _, b := range c.batches {
		for _, id := range b.order {
			e := b.cells[id]
			cells = append(cells, settled{id: id, m: e.m, edges: e.edges})
		}
	}
	c.mu.Unlock()

	rep := &Report{}
	union := make(map[edgeKey]*UnionEdge)
	for _, s := range cells {
		edges := s.edges
		if edges == nil {
			edges = s.m.Edges()
		}
		cc := CellCoverage{Cell: s.id, Edges: edges, Digest: DigestOf(edges)}
		for _, e := range edges {
			key := edgeKey{e.Family, e.Name}
			u, ok := union[key]
			if !ok {
				u = &UnionEdge{Family: e.Family, Name: e.Name, FirstCell: s.id}
				union[key] = u
				cc.NewEdges++
			}
			u.Count += e.Count
			u.Cells++
		}
		rep.Cells = append(rep.Cells, cc)
	}
	rep.Union = make([]UnionEdge, 0, len(union))
	for _, u := range union {
		rep.Union = append(rep.Union, *u)
	}
	slices.SortFunc(rep.Union, func(a, b UnionEdge) int {
		return edgeKey{a.Family, a.Name}.compare(edgeKey{b.Family, b.Name})
	})
	rep.TotalEdges = len(rep.Union)
	famCount := make(map[Family]int)
	for _, u := range rep.Union {
		famCount[u.Family]++
	}
	for _, fam := range []Family{FamDomctl, FamGrant, FamHypercall, FamInjector, FamPageType, FamValidation, FamWalk} {
		if n := famCount[fam]; n > 0 {
			rep.Families = append(rep.Families, FamilyCount{Family: fam, Edges: n})
		}
	}
	rep.Digest = rep.computeDigest()
	return rep
}

// Canonical renders the report in its canonical text form: per-cell
// header lines in dispatch order followed by the attributed union.
// Everything the digest covers is here; nothing here depends on wall
// time, completion order or worker count.
func (r *Report) Canonical() string { return string(r.appendCanonical(nil)) }

func (r *Report) appendCanonical(b []byte) []byte {
	for _, c := range r.Cells {
		b = append(append(b, "cell "...), c.Cell...)
		b = strconv.AppendInt(append(b, " edges="...), int64(len(c.Edges)), 10)
		b = strconv.AppendInt(append(b, " new="...), int64(c.NewEdges), 10)
		b = append(append(append(b, " digest="...), c.Digest...), '\n')
	}
	for _, u := range r.Union {
		b = append(append(append(b, u.Family...), '/'), u.Name...)
		b = strconv.AppendUint(append(b, " x"...), u.Count, 10)
		b = strconv.AppendInt(append(b, " cells="...), int64(u.Cells), 10)
		b = append(append(append(b, " first="...), u.FirstCell...), '\n')
	}
	return b
}

func (r *Report) computeDigest() string {
	h := fnvOffset
	for _, c := range r.appendCanonical(nil) {
		h = fnvByte(h, c)
	}
	return hex16(h)
}

// Verify recomputes each cell digest and the report digest from the
// exported fields, catching hand-edited or truncated artifacts.
func (r *Report) Verify() error {
	for _, c := range r.Cells {
		if got := DigestOf(c.Edges); got != c.Digest {
			return fmt.Errorf("cell %s: digest %s does not match edges (recomputed %s)", c.Cell, c.Digest, got)
		}
	}
	if got := r.computeDigest(); got != r.Digest {
		return fmt.Errorf("report digest %s does not match contents (recomputed %s)", r.Digest, got)
	}
	return nil
}

// Diff compares two reports' unions. New edges are present in b but
// not a; lost edges are present in a but not b. Both carry b's (or
// a's, for lost) first-witness cell so a diff names where the edge
// came from.
func Diff(a, b *Report) (newEdges, lostEdges []UnionEdge) {
	inA := make(map[edgeKey]bool, len(a.Union))
	for _, u := range a.Union {
		inA[edgeKey{u.Family, u.Name}] = true
	}
	inB := make(map[edgeKey]bool, len(b.Union))
	for _, u := range b.Union {
		inB[edgeKey{u.Family, u.Name}] = true
	}
	for _, u := range b.Union {
		if !inA[edgeKey{u.Family, u.Name}] {
			newEdges = append(newEdges, u)
		}
	}
	for _, u := range a.Union {
		if !inB[edgeKey{u.Family, u.Name}] {
			lostEdges = append(lostEdges, u)
		}
	}
	return newEdges, lostEdges
}

// edgeKey identifies an edge across maps: its family and name.
type edgeKey struct {
	family Family
	name   string
}

// compare orders edges canonically: by family, then by name.
func (k edgeKey) compare(o edgeKey) int {
	if c := cmp.Compare(k.family, o.family); c != 0 {
		return c
	}
	return cmp.Compare(k.name, o.name)
}
