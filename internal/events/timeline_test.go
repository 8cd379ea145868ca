package events

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/span"
)

func TestTimelineSnapshot(t *testing.T) {
	tl := NewTimeline()
	tl.BatchQueued([]string{"a", "b", "c", "d"})
	tl.CellDispatched("a", 0, 100)
	tl.CellDispatched("b", 1, 200)
	tl.CellSettled("a", 0, 100, 1000, nil, nil)
	tl.CellSettled("b", 1, 200, 2000, nil, &campaign.CellError{Cell: "b", Class: campaign.FailPanic, Message: "boom"})
	tl.CellDispatched("c", 0, 300)

	s := tl.Snapshot()
	if s.Total != 4 || s.Completed != 2 || s.Running != 1 || s.Queued != 1 || s.Failed != 1 {
		t.Fatalf("snapshot counts = total %d completed %d running %d queued %d failed %d",
			s.Total, s.Completed, s.Running, s.Queued, s.Failed)
	}
	if s.AvgQueueNS != 150 || s.AvgRunNS != 1500 {
		t.Fatalf("avg queue %d avg run %d, want 150/1500", s.AvgQueueNS, s.AvgRunNS)
	}
	if s.Utilization < 0 || s.Utilization > 1 {
		t.Fatalf("utilization %v out of [0,1]", s.Utilization)
	}
	if s.ETANS <= 0 {
		t.Fatalf("ETA %d, want > 0 with 2 cells remaining", s.ETANS)
	}
	if len(s.Workers) != 2 {
		t.Fatalf("%d worker lanes, want 2", len(s.Workers))
	}
	w0 := s.Workers[0]
	if w0.Worker != 0 || w0.Cells != 1 {
		t.Fatalf("lane 0 = %+v, want worker 0 with 1 settled cell", w0)
	}
	if w0.BusyNS < 1000 {
		t.Fatalf("lane 0 busy %d, want >= 1000 (settled run plus the in-flight cell)", w0.BusyNS)
	}
	found := false
	for _, slot := range s.Workers[1].Slots {
		if slot.Cell == "b" && slot.Class == string(campaign.FailPanic) {
			found = true
		}
	}
	if !found {
		t.Fatal("failed cell b missing its failure class in lane 1")
	}
}

// TestTimelineUndispatchedCancel mirrors the engine's cancel path:
// cells settled without a dispatch land on the synthetic -1 lane and
// still count toward completion.
func TestTimelineUndispatchedCancel(t *testing.T) {
	tl := NewTimeline()
	tl.BatchQueued([]string{"a", "b"})
	tl.CellDispatched("a", 0, 10)
	tl.CellSettled("a", 0, 10, 500, nil, nil)
	tl.CellSettled("b", -1, 0, 0, nil, &campaign.CellError{Cell: "b", Class: campaign.FailCanceled, Message: "ctx"})

	s := tl.Snapshot()
	if s.Completed != 2 || s.Failed != 1 || s.Queued != 0 || s.Running != 0 {
		t.Fatalf("counts = %+v", s)
	}
	if len(s.Workers) != 2 || s.Workers[0].Worker != -1 {
		t.Fatalf("want a -1 lane first, got %+v", s.Workers)
	}
	// The undispatched lane never contributes occupancy.
	if s.Workers[0].BusyNS != 0 {
		t.Fatalf("-1 lane busy %d, want 0", s.Workers[0].BusyNS)
	}
	sum := RenderSummary(s)
	if !strings.Contains(sum, "undispatched: 1 cells canceled before pickup") {
		t.Fatalf("summary missing the undispatched line:\n%s", sum)
	}
}

func TestTimelineWriteChrome(t *testing.T) {
	tl := NewTimeline()
	tl.BatchQueued([]string{"a", "b", "c"})
	for i, c := range []string{"a", "b", "c"} {
		w := i % 2
		tl.CellDispatched(c, w, int64(i)*100)
		tl.CellSettled(c, w, int64(i)*100, int64(i+1)*1000, nil, nil)
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Schedule    Schedule         `json:"schedule"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var xEvents, meta int
	for _, ev := range f.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
			if ev["cat"] != "cell" {
				t.Fatalf("X event without cell cat: %+v", ev)
			}
		case "M":
			meta++
		}
	}
	if xEvents != 3 {
		t.Fatalf("%d complete events, want 3", xEvents)
	}
	if meta != 3 { // process_name + 2 worker tracks
		t.Fatalf("%d metadata events, want 3", meta)
	}
	if f.Schedule.Completed != 3 {
		t.Fatalf("embedded schedule settled %d, want 3", f.Schedule.Completed)
	}
}

// spanCell builds a settled span cell with one boot phase, its wall
// bounds stretched by sleeping so the placement check has width.
func spanCell(id string) *span.CellSpans {
	tr := span.NewTree(id, nil)
	p := tr.Phase(span.PhaseBoot)
	time.Sleep(time.Millisecond)
	tr.End(p)
	tr.Finish()
	return &span.CellSpans{Cell: id, Tree: tr}
}

// The span projection is a valid JSON array with process/track metadata
// and one complete event per span, each on the track of the worker the
// timeline saw run its cell and inside that cell's wall slot.
func TestWriteChromeValidJSON(t *testing.T) {
	tl := NewTimeline()
	c := span.NewCollector()
	cells := []string{"a", "b", "hung"}
	tl.BatchQueued(cells)
	c.Announce(cells)
	for i, id := range cells {
		w := i % 2
		tl.CellDispatched(id, w, 0)
		began := time.Now()
		cs := &span.CellSpans{Cell: id, Class: "hang"} // no tree: metadata only
		if id != "hung" {
			cs = spanCell(id)
		}
		c.FinishCell(cs)
		tl.CellSettled(id, w, 0, time.Since(began).Nanoseconds(), nil, nil)
	}

	var buf bytes.Buffer
	if err := tl.WriteSpansChrome(&buf, c.Forest()); err != nil {
		t.Fatalf("WriteSpansChrome: %v", err)
	}
	var rows []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("export is not a JSON array: %v\n%s", err, buf.String())
	}
	slots := map[string]Slot{}
	for _, ln := range tl.Snapshot().Workers {
		for _, s := range ln.Slots {
			slots[s.Cell] = s
		}
	}
	meta, complete := 0, 0
	tracks := map[int]bool{}
	for _, r := range rows {
		switch r.Phase {
		case "M":
			meta++
			if r.Name == "thread_name" {
				tracks[r.TID] = true
			}
		case "X":
			complete++
			cell, _ := r.Args["cell"].(string)
			if cell == "" || r.Args["v_start"] == nil || r.Args["v_end"] == nil {
				t.Errorf("X event missing args: %+v", r)
			}
			if !tracks[r.TID] {
				t.Errorf("X event on undeclared track %d", r.TID)
			}
			s := slots[cell]
			if r.TID != s.Worker+1 {
				t.Errorf("%s %q on tid %d, want worker %d's track", cell, r.Name, r.TID, s.Worker)
			}
			start, end := float64(s.StartNS)/1e3, float64(s.StartNS+s.RunNS)/1e3
			if r.TS < start || r.TS+r.Dur > end+1 {
				t.Errorf("%s %q at [%v,%v]us escapes its slot [%v,%v]us", cell, r.Name, r.TS, r.TS+r.Dur, start, end)
			}
		}
	}
	// process_name + 2 worker tracks; 2 spans per settled tree.
	if meta != 3 || complete != 4 {
		t.Errorf("got %d metadata / %d complete events, want 3/4", meta, complete)
	}

	// A forest cell the timeline never settled cannot be placed.
	c.FinishCell(spanCell("elsewhere"))
	if err := tl.WriteSpansChrome(&bytes.Buffer{}, c.Forest()); err == nil || !strings.Contains(err.Error(), "elsewhere") {
		t.Errorf("unplaced cell: err = %v, want one naming the cell", err)
	}
}

func TestRenderSummary(t *testing.T) {
	tl := NewTimeline()
	tl.BatchQueued([]string{"a"})
	tl.CellDispatched("a", 0, 50)
	tl.CellSettled("a", 0, 50, 1000, nil, nil)
	sum := RenderSummary(tl.Snapshot())
	for _, want := range []string{
		"WALL SCHEDULE SUMMARY",
		"cells: 1 settled, 0 failed",
		"wall critical path: worker 0",
		"worker 0: 1 cells",
		"utilization:",
		"avg queue wait:",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
