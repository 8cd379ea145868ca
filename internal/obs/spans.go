package obs

import (
	"encoding/json"
	"net/http"

	"repro/internal/span"
)

// The /spans endpoint: the live span forest as JSON. CellSpans keeps
// its *Tree out of its own JSON form (the tree is engine-internal
// state), so the wire view re-attaches each cell's spans explicitly,
// with span kinds as their wire names. Worker and wall placement are
// not here: /schedule and /cells serve them from the scheduler
// timeline.

// wireSpan is one span on the /spans wire: the span's own JSON fields
// plus the kind's wire name.
type wireSpan struct {
	span.Span
	Kind string `json:"kind"`
}

// wireCell is one cell on the /spans wire.
type wireCell struct {
	*span.CellSpans
	Spans []wireSpan `json:"spans"`
}

// wireForest is the /spans response body: the settled cells in
// dispatch order.
type wireForest struct {
	Cells []wireCell `json:"cells"`
}

func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	if s.spans == nil {
		http.Error(w, "span collection not enabled (run with -spans)", http.StatusNotFound)
		return
	}
	cells := s.spans.Forest().Cells()
	out := wireForest{Cells: make([]wireCell, 0, len(cells))}
	for _, cs := range cells {
		wc := wireCell{CellSpans: cs}
		for _, sp := range cs.Tree.Spans() {
			wc.Spans = append(wc.Spans, wireSpan{Span: sp, Kind: sp.Kind.String()})
		}
		out.Cells = append(out.Cells, wc)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
