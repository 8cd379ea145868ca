package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/span"
)

// phaseColumns orders the per-phase breakdown columns: the lifecycle
// order first, then anything unexpected alphabetically.
func phaseColumns(f *span.Forest) []string {
	known := []string{span.PhaseBoot, span.PhaseExploit, span.PhaseInject, span.PhaseAssess}
	seen := f.PhaseTotals()
	var cols []string
	for _, p := range known {
		if _, ok := seen[p]; ok {
			cols = append(cols, p)
			delete(seen, p)
		}
	}
	var rest []string
	for p := range seen {
		rest = append(rest, p)
	}
	sort.Strings(rest)
	return append(cols, rest...)
}

// SpanSummary renders the campaign's span forest: campaign-wide phase
// totals, the deterministic critical-path analysis of its cells at the
// given pool size, and the per-cell detection-latency table (RQ3).
// Everything in it is measured in virtual time (events), so the output
// is byte-identical at any worker count and golden-pinnable.
func SpanSummary(f *span.Forest, workers int) string {
	var b strings.Builder
	b.WriteString("CAUSAL SPAN SUMMARY (virtual time, events)\n")
	b.WriteString(rule(72) + "\n")
	cells := f.Cells()
	if len(cells) == 0 {
		b.WriteString("no spans collected (was the campaign run with -spans?)\n")
		return b.String()
	}

	cols := phaseColumns(f)
	totals := f.PhaseTotals()
	b.WriteString(fmt.Sprintf("%-40s %s\n", "Phase", "Total"))
	b.WriteString(rule(72) + "\n")
	for _, p := range cols {
		b.WriteString(fmt.Sprintf("%-40s %d\n", p, totals[p]))
	}

	cp := span.AnalyzeCriticalPath(f, workers)
	b.WriteString(rule(72) + "\n")
	// The header keeps the "batch01" name the summary was first pinned
	// with; a forest is one campaign.
	b.WriteString(fmt.Sprintf("batch01: %d cells, workers=%d\n", len(cells), cp.Workers))
	b.WriteString(fmt.Sprintf("critical path: makespan=%d total=%d efficiency=%.3f\n",
		cp.MakespanV, cp.TotalV, cp.Efficiency))
	header := fmt.Sprintf("%-36s %8s", "Cell (critical chain)", "total")
	for _, p := range cols {
		header += fmt.Sprintf(" %8s", p)
	}
	b.WriteString(header + "\n")
	for _, cc := range cp.Chain {
		row := fmt.Sprintf("%-36s %8d", cc.Cell, cc.TotalV)
		for _, p := range cols {
			row += fmt.Sprintf(" %8d", cc.PhaseV[p])
		}
		b.WriteString(row + "\n")
	}

	b.WriteString(rule(72) + "\n")
	b.WriteString("DETECTION LATENCY (RQ3)\n")
	b.WriteString(fmt.Sprintf("%-36s %10s %10s %8s\n", "Cell", "trigger_v", "evidence_v", "latency"))
	b.WriteString(rule(72) + "\n")
	for _, cs := range cells {
		if !cs.Latency.Found {
			b.WriteString(fmt.Sprintf("%-36s %10s %10s %8s\n", cs.Cell, "-", "-", "-"))
			continue
		}
		b.WriteString(fmt.Sprintf("%-36s %10d %10d %8d\n",
			cs.Cell, cs.Latency.TriggerV, cs.Latency.EvidenceV, cs.Latency.Events))
	}
	b.WriteString(rule(72) + "\n")
	return b.String()
}
