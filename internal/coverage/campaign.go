package coverage

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// Collector aggregates per-cell coverage maps across a campaign as one
// ordered cell list: the runner announces the campaign's cells in
// dispatch order via Announce, workers hand in finished maps via
// FinishCell in whatever order they complete, and Report settles
// everything into dispatch order — so union membership, first-witness
// cells and per-cell new-edge attribution are identical at any worker
// count. A cell settling without an announcement (the single-run path)
// appends at the end.
type Collector struct {
	mu    sync.Mutex
	cells []cellSlot
	index map[string]int
}

// cellSlot is one announced or settled cell.
type cellSlot struct {
	cell string
	m    *Map
	done bool
}

// NewCollector returns an empty campaign coverage collector.
func NewCollector() *Collector { return &Collector{index: make(map[string]int)} }

// Announce appends cells in dispatch order, as unsettled slots.
func (c *Collector) Announce(cells []string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range cells {
		c.index[id] = len(c.cells)
		c.cells = append(c.cells, cellSlot{cell: id})
	}
}

// FinishCell records a cell's finished map (nil for a cell that was
// abandoned before producing coverage) in its announced slot, or at the
// end when no open slot awaits it.
func (c *Collector) FinishCell(cell string, m *Map) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[cell]; ok && !c.cells[i].done {
		c.cells[i] = cellSlot{cell: cell, m: m, done: true}
		return
	}
	c.cells = append(c.cells, cellSlot{cell: cell, m: m, done: true})
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
	slots := append([]cellSlot(nil), c.cells...)
	c.mu.Unlock()
	cells := make([]CellEdges, len(slots))
	for i, s := range slots {
		cells[i] = CellEdges{Cell: s.cell, Edges: s.m.Edges()}
	}
	return BuildReport(cells)
}

// CellEdges is one cell's settled edge list, the input of BuildReport.
// nil Edges means the cell produced no coverage.
type CellEdges struct {
	Cell  string
	Edges []Edge
}

// BuildReport computes the campaign report from cells in dispatch
// order: per-cell digests, the union with first-witness attribution,
// family counts and the report digest. The report shares each list that
// is in canonical order with no repeated edge, which is what Map.Edges
// returns; any other list — a persisted one read back from a file — is
// canonicalized through FromEdges first.
func BuildReport(cells []CellEdges) *Report {
	rep := &Report{}
	if len(cells) > 0 {
		rep.Cells = make([]CellCoverage, 0, len(cells))
	}
	union := make(map[edgeKey]*UnionEdge)
	for _, s := range cells {
		edges := s.Edges
		if edges != nil && !isCanonical(edges) {
			edges = FromEdges(edges).Edges()
		}
		cc := CellCoverage{Cell: s.Cell, Edges: edges, Digest: DigestOf(edges)}
		for _, e := range edges {
			key := edgeKey{e.Family, e.Name}
			u, ok := union[key]
			if !ok {
				u = &UnionEdge{Family: e.Family, Name: e.Name, FirstCell: s.Cell}
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
