package events

import (
	"log/slog"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// Publisher adapts the engine's scheduler hook onto the bus: it
// implements campaign.SchedObserver and turns every scheduling
// decision into a bus event. It holds no state of its own — ordering
// and IDs come from the bus — so it is safe for the concurrent worker
// notifications the hook contract requires.
type Publisher struct {
	Bus *Bus
}

var _ campaign.SchedObserver = (*Publisher)(nil)

// BatchQueued implements campaign.SchedObserver.
func (p *Publisher) BatchQueued(cells []string) {
	p.Bus.Publish(Event{Type: TypeBatchStarted, Worker: -1, Cells: len(cells)})
}

// CellDispatched implements campaign.SchedObserver.
func (p *Publisher) CellDispatched(cell string, worker int, queueNS int64) {
	p.Bus.Publish(Event{Type: TypeCellStarted, Cell: cell, Worker: worker, QueueNS: queueNS})
}

// CellSettled implements campaign.SchedObserver. Every outcome class
// produces exactly one terminal event per cell: successes carry the
// cell's telemetry activity when profiled, failures their class and
// message (panicked, hung and canceled cells included).
func (p *Publisher) CellSettled(cell string, worker int, queueNS, runNS int64, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	ev := Event{Type: TypeCellFinished, Cell: cell, Worker: worker, QueueNS: queueNS, WallNS: runNS}
	ev.Events, ev.Dropped = activity(profile)
	if cerr != nil {
		ev.Class = string(cerr.Class)
		ev.Error = cerr.Message
	}
	p.Bus.Publish(ev)
}

// activity is a profiled cell's telemetry activity, zero without a
// profile. Emitted ≈ retained + overwritten: the ring keeps the newest
// events and counts what it evicted.
func activity(p *telemetry.CellProfile) (emitted, dropped uint64) {
	if p == nil {
		return 0, 0
	}
	return uint64(len(p.Events)) + p.DroppedEvents, p.DroppedEvents
}

// CampaignDone publishes the stream's terminal event: how many cells
// settled and how many failed, so a subscriber knows the run is over
// without watching for the connection to close.
func (p *Publisher) CampaignDone(cells, failed int) {
	p.Bus.Publish(Event{Type: TypeCampaignDone, Worker: -1, Cells: cells, Failed: failed})
}

// Fanout dispatches every scheduler hook to each observer in order,
// letting the CLI install the bus publisher, the timeline, the flight
// recorder and the log side by side on the runner's single Sched slot.
type Fanout []campaign.SchedObserver

var _ campaign.SchedObserver = (Fanout)(nil)

// BatchQueued implements campaign.SchedObserver.
func (f Fanout) BatchQueued(cells []string) {
	for _, o := range f {
		o.BatchQueued(cells)
	}
}

// CellDispatched implements campaign.SchedObserver.
func (f Fanout) CellDispatched(cell string, worker int, queueNS int64) {
	for _, o := range f {
		o.CellDispatched(cell, worker, queueNS)
	}
}

// CellSettled implements campaign.SchedObserver.
func (f Fanout) CellSettled(cell string, worker int, queueNS, runNS int64, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	for _, o := range f {
		o.CellSettled(cell, worker, queueNS, runNS, profile, cerr)
	}
}

// Log adapts the engine's scheduler hook onto structured logging: the
// batch at Info, each cell's dispatch and settle at Debug, and failed
// cells at Warn with their class and message.
type Log struct {
	Logger *slog.Logger
	// Workers is the pool size logged with each batch.
	Workers int
}

var _ campaign.SchedObserver = (*Log)(nil)

// BatchQueued implements campaign.SchedObserver.
func (l *Log) BatchQueued(cells []string) {
	l.Logger.Info("batch queued", "cells", len(cells), "workers", l.Workers)
}

// CellDispatched implements campaign.SchedObserver.
func (l *Log) CellDispatched(cell string, worker int, queueNS int64) {
	l.Logger.Debug("cell dispatched", "cell", cell, "worker", worker, "queue_ns", queueNS)
}

// CellSettled implements campaign.SchedObserver.
func (l *Log) CellSettled(cell string, worker int, _, runNS int64, _ *telemetry.CellProfile, cerr *campaign.CellError) {
	if cerr != nil {
		l.Logger.Warn("cell failed", "cell", cell, "worker", worker,
			"wall_ns", runNS, "class", string(cerr.Class), "error", cerr.Message)
		return
	}
	l.Logger.Debug("cell settled", "cell", cell, "worker", worker, "wall_ns", runNS)
}
