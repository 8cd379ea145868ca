package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
)

// traceRow mirrors one Chrome trace-event row of a `repro -spans` or
// `repro -schedule` artifact for validation.
type traceRow struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// validateSpans checks a Chrome trace-event span file: it must parse as
// a JSON array, declare the process and worker-track metadata Perfetto
// renders, and every complete ("X") event must carry its cell identity
// and a well-formed virtual interval. Per cell there must be exactly
// one cell-root span and at least one phase span.
func validateSpans(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var rows []traceRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		log.Fatalf("%s: not a Chrome trace-event JSON array: %v", path, err)
	}
	if len(rows) == 0 {
		log.Fatalf("%s: span file is empty", path)
	}

	fail := false
	failf := func(format string, args ...any) {
		fmt.Printf("FAIL "+format+"\n", args...)
		fail = true
	}

	// Metadata: one process_name row, and a thread_name row per worker
	// track any span event references.
	process := false
	tracks := map[int]bool{}
	for _, r := range rows {
		if r.Phase != "M" {
			continue
		}
		switch r.Name {
		case "process_name":
			process = true
		case "thread_name":
			tracks[r.TID] = true
		}
	}
	if !process {
		failf("%s: no process_name metadata", path)
	}

	type cellCheck struct{ roots, phases, spans int }
	cells := map[string]*cellCheck{}
	spans := 0
	for i, r := range rows {
		if r.Phase != "X" {
			continue
		}
		spans++
		cell, _ := r.Args["cell"].(string)
		if cell == "" {
			failf("%s: event %d (%s): no cell in args", path, i, r.Name)
			continue
		}
		if !tracks[r.TID] {
			failf("%s: event %d (%s): tid %d has no thread_name track", path, i, r.Name, r.TID)
		}
		vStart, okS := r.Args["v_start"].(float64)
		vEnd, okE := r.Args["v_end"].(float64)
		if !okS || !okE || vEnd < vStart {
			failf("%s: event %d (%s): bad virtual interval v_start=%v v_end=%v",
				path, i, r.Name, r.Args["v_start"], r.Args["v_end"])
		}
		if r.Dur < 0 {
			failf("%s: event %d (%s): negative duration %v", path, i, r.Name, r.Dur)
		}
		c := cells[cell]
		if c == nil {
			c = &cellCheck{}
			cells[cell] = c
		}
		c.spans++
		switch r.Cat {
		case "cell":
			c.roots++
		case "phase":
			c.phases++
		}
	}
	if spans == 0 {
		log.Fatalf("%s: no span events, only metadata", path)
	}
	for cell, c := range cells {
		if c.roots != 1 {
			failf("%s: %d cell-root spans (want exactly 1)", cell, c.roots)
		}
		if c.phases == 0 {
			failf("%s: no phase spans", cell)
		}
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("ok: %d spans across %d cells on %d worker tracks\n", spans, len(cells), len(tracks))
}
