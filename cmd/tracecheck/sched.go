package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"repro/internal/events"
)

// Sched mode validates a wall-schedule file produced by `repro
// -schedule` and summarizes what it says about the worker pool: the
// file must parse as Chrome trace-event JSON in object form, carry the
// process/worker metadata Perfetto needs, place every settled cell as
// a well-formed complete event, and embed the Schedule snapshot the
// exporter settled on. The summary recomputes per-worker occupancy
// from the trace events and cross-checks it against the embedded
// snapshot, so a file whose two halves disagree fails loudly.

// schedFile is the object form `repro -schedule` writes.
type schedFile struct {
	TraceEvents []traceRow      `json:"traceEvents"`
	Schedule    events.Schedule `json:"schedule"`
}

func validateSched(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var f schedFile
	if err := json.Unmarshal(raw, &f); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if len(f.TraceEvents) == 0 {
		log.Fatalf("%s: no trace events", path)
	}

	var haveProcess bool
	workerNames := map[int]bool{}
	cellsPerTID := map[int]int{}
	busyPerTID := map[int]float64{}
	cells := 0
	for i, ev := range f.TraceEvents {
		switch ev.Phase {
		case "M":
			switch ev.Name {
			case "process_name":
				haveProcess = true
			case "thread_name":
				workerNames[ev.TID] = true
			default:
				log.Fatalf("%s: event %d: unknown metadata %q", path, i, ev.Name)
			}
		case "X":
			if ev.Name == "" {
				log.Fatalf("%s: event %d: complete event without a cell name", path, i)
			}
			if ev.Cat != "cell" {
				log.Fatalf("%s: event %d (%s): want cat \"cell\", got %q", path, i, ev.Name, ev.Cat)
			}
			if ev.TS < 0 || ev.Dur < 0 {
				log.Fatalf("%s: event %d (%s): negative placement (ts=%v dur=%v)", path, i, ev.Name, ev.TS, ev.Dur)
			}
			if !workerNames[ev.TID] {
				log.Fatalf("%s: event %d (%s): tid %d has no thread_name metadata", path, i, ev.Name, ev.TID)
			}
			cells++
			cellsPerTID[ev.TID]++
			busyPerTID[ev.TID] += ev.Dur
		default:
			log.Fatalf("%s: event %d: unexpected phase %q", path, i, ev.Phase)
		}
	}
	if !haveProcess {
		log.Fatalf("%s: no process_name metadata", path)
	}
	if cells != f.Schedule.Completed {
		log.Fatalf("%s: %d complete events but the embedded schedule settled %d cells", path, cells, f.Schedule.Completed)
	}
	for _, ln := range f.Schedule.Workers {
		tid := ln.Worker + 1
		if cellsPerTID[tid] != ln.Cells {
			log.Fatalf("%s: worker %d: %d trace events but the schedule records %d cells",
				path, ln.Worker, cellsPerTID[tid], ln.Cells)
		}
		// The exporter rounds to microseconds per event; allow the
		// accumulated rounding slack.
		slack := float64(ln.Cells) + 1
		if diff := busyPerTID[tid] - float64(ln.BusyNS)/1e3; diff > slack || diff < -slack {
			log.Fatalf("%s: worker %d: trace occupancy %.1fus disagrees with schedule busy %.1fus",
				path, ln.Worker, busyPerTID[tid], float64(ln.BusyNS)/1e3)
		}
	}

	fmt.Printf("ok: %d cells across %d worker tracks\n", cells, len(workerNames))
	fmt.Print(events.RenderSummary(f.Schedule))
}
