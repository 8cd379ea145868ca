package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/span"
)

// Chrome trace-event JSON export, the interchange format Perfetto and
// chrome://tracing load directly. Both exports are projections of the
// scheduler timeline: one process, one track (tid = worker + 1) per
// campaign worker, and complete ("X") events placed on the wall clock
// the timeline recorded. The schedule projection draws one event per
// settled cell; the span projection draws each cell's span tree on its
// cell's track, offset from the cell's dispatch.

// traceEvent is one trace-event row. Field order is fixed by the
// struct, so an export is stable apart from its wall timestamps.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

const chromePID = 1

// trackTID is the trace track of a worker index.
func trackTID(worker int) int { return worker + 1 }

// metadata returns the process row and one thread row per worker, in
// the given order. Worker -1 is the synthetic lane of cells canceled
// before dispatch.
func metadata(process string, workers []int) []traceEvent {
	rows := []traceEvent{{
		Name: "process_name", Phase: "M", PID: chromePID,
		Args: map[string]any{"name": process},
	}}
	for _, w := range workers {
		name := fmt.Sprintf("worker %d", w)
		if w < 0 {
			name = "undispatched"
		}
		rows = append(rows, traceEvent{
			Name: "thread_name", Phase: "M", PID: chromePID, TID: trackTID(w),
			Args: map[string]any{"name": name},
		})
	}
	return rows
}

// writeTrace writes rows one per line between head and tail, comma
// separated: the body of a trace-event array.
func writeTrace(w io.Writer, head string, rows []traceEvent, tail string) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(head)
	for i, ev := range rows {
		if i > 0 {
			bw.WriteString(",\n")
		}
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.Write(raw)
	}
	bw.WriteString(tail)
	return bw.Flush()
}

// WriteChrome writes the wall schedule as Chrome trace-event JSON in
// object form ({"traceEvents": [...], "schedule": {...}}): one track
// per worker, one complete event per settled cell, queue wait and
// failure class in args, and the Schedule snapshot embedded for
// tracecheck sched.
func (t *Timeline) WriteChrome(w io.Writer) error {
	s := t.Snapshot()
	workers := make([]int, len(s.Workers))
	for i, ln := range s.Workers {
		workers[i] = ln.Worker
	}
	rows := metadata("repro wall schedule", workers)
	for _, ln := range s.Workers {
		for _, slot := range ln.Slots {
			args := map[string]any{"queue_us": float64(slot.QueueNS) / 1e3}
			if slot.Class != "" {
				args["class"] = slot.Class
			}
			rows = append(rows, traceEvent{
				Name: slot.Cell, Cat: "cell", Phase: "X",
				TS: float64(slot.StartNS) / 1e3, Dur: float64(slot.RunNS) / 1e3,
				PID: chromePID, TID: trackTID(ln.Worker), Args: args,
			})
		}
	}
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return writeTrace(w, "{\"traceEvents\": [\n", rows, "\n], \"schedule\": "+string(raw)+"}\n")
}

// WriteSpansChrome writes a span forest as a Chrome trace-event JSON
// array. Each cell's spans go on the track of the worker the timeline
// saw run it, at the cell's dispatch time plus each span's wall offset
// within its tree; virtual times ride along in args, so a Perfetto
// query can still reason in the deterministic clock. Every forest cell
// must have settled on this timeline.
func (t *Timeline) WriteSpansChrome(w io.Writer, f *span.Forest) error {
	slots := make(map[string]Slot)
	for _, ln := range t.Snapshot().Workers {
		for _, s := range ln.Slots {
			slots[s.Cell] = s
		}
	}
	var spans []traceEvent
	seen := make(map[int]bool)
	for _, cs := range f.Cells() {
		slot, ok := slots[cs.Cell]
		if !ok {
			return fmt.Errorf("events: span cell %s has no settled slot on the timeline", cs.Cell)
		}
		seen[slot.Worker] = true
		for _, s := range cs.Tree.Spans() {
			args := map[string]any{"cell": cs.Cell, "v_start": s.StartV, "v_end": s.EndV}
			if s.Aborted {
				args["aborted"] = true
			}
			spans = append(spans, traceEvent{
				Name: s.Name, Cat: s.Kind.String(), Phase: "X",
				TS:  float64(slot.StartNS+s.StartNS) / 1e3,
				Dur: float64(s.EndNS-s.StartNS) / 1e3,
				PID: chromePID, TID: trackTID(slot.Worker), Args: args,
			})
		}
	}
	workers := make([]int, 0, len(seen))
	for w := range seen {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	rows := append(metadata("repro campaign", workers), spans...)
	return writeTrace(w, "[\n", rows, "\n]\n")
}
