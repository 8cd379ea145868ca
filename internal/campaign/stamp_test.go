package campaign

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// The boot-stamp differential: a fork's sinks must end up the same
// whether the snapshot's boot journal arrives in bulk (mm.Snapshot.Apply
// with no fault plane) or op by op (Replay), on every (version, mode)
// snapshot: raw events including Seq and Addr, counters, coverage edges
// and digest, and the span tree's structure and virtual times.

// stampSinks is one fork's instrumentation, armed the way the runner
// arms a cell and sitting inside the boot phase as forkEnvironment does.
type stampSinks struct {
	rec  *telemetry.Recorder
	tree *span.Tree
	flt  *faults.Injector
}

func newStampSinks(s *envSnapshot, limit int, flt *faults.Injector) stampSinks {
	rec := telemetry.NewRecorder(limit)
	rec.AttachFaults(flt)
	cov := coverage.NewMap()
	cov.SetFrameClassifier(s.fc)
	rec.AttachCoverage(cov)
	tree := span.NewTree("cell", rec.Emitted)
	tree.Phase(span.PhaseBoot)
	// An event before the boot output, so Seq renumbering starts from a
	// nonzero clock.
	rec.ScenarioStep("stamp", "pre-boot")
	return stampSinks{rec: rec, tree: tree, flt: flt}
}

// requireSameSinks fails unless the two forks' sinks hold the same
// output. Wall-clock span fields are excluded, as on every canonical
// surface.
func requireSameSinks(t *testing.T, name string, got, want stampSinks) {
	t.Helper()
	if g, w := got.rec.Events(), want.rec.Events(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: %d events differ from Replay's %d", name, len(g), len(w))
	}
	if g, w := got.rec.Emitted(), want.rec.Emitted(); g != w {
		t.Errorf("%s: emitted %d, Replay %d", name, g, w)
	}
	if g, w := got.rec.Dropped(), want.rec.Dropped(); g != w {
		t.Errorf("%s: dropped %d, Replay %d", name, g, w)
	}
	if g, w := got.rec.Counters(), want.rec.Counters(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: counters differ\n got: %v\nwant: %v", name, g, w)
	}
	gc, wc := got.rec.Coverage(), want.rec.Coverage()
	if g, w := gc.Edges(), wc.Edges(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: coverage edges differ\n got: %v\nwant: %v", name, g, w)
	}
	if g, w := gc.Digest(), wc.Digest(); g != w {
		t.Errorf("%s: coverage digest %s, Replay %s", name, g, w)
	}
	gs, ws := got.tree.Spans(), want.tree.Spans()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d spans, Replay %d", name, len(gs), len(ws))
	}
	for i := range gs {
		g, w := gs[i], ws[i]
		if g.ID != w.ID || g.Parent != w.Parent || g.Kind != w.Kind || g.Name != w.Name ||
			g.StartV != w.StartV || g.EndV != w.EndV {
			t.Errorf("%s: span %d differs\n got: %+v\nwant: %+v", name, i, g, w)
		}
	}
}

func TestBootStampMatchesReplay(t *testing.T) {
	p := campaignPlan()
	for _, v := range hv.Versions() {
		for _, mode := range []Mode{ModeExploit, ModeInjection} {
			s := snapshotFor(p, v, mode)
			if s.err != nil {
				t.Fatal(s.err)
			}
			name := v.Name + "/" + string(mode)

			want := newStampSinks(s, 0, nil)
			s.ms.Replay(want.rec, nil, want.tree)
			got := newStampSinks(s, 0, nil)
			s.ms.Apply(got.rec, nil, got.tree, s.fc)
			requireSameSinks(t, name, got, want)

			// The stamp path opens every mm-op span at one wall-clock
			// reading; Replay reads the clock per span while the whole
			// journal plays, so this also shows which path ran.
			var mmOps []span.Span
			for _, sp := range got.tree.Spans() {
				if sp.Kind == span.KindMMOp {
					mmOps = append(mmOps, sp)
				}
			}
			if len(mmOps) == 0 {
				t.Fatalf("%s: the boot journal opened no mm-op spans", name)
			}
			for _, sp := range mmOps {
				if sp.StartNS != mmOps[0].StartNS || sp.EndNS != sp.StartNS {
					t.Errorf("%s: stamped mm-op span %+v does not sit at the one wall reading %d", name, sp, mmOps[0].StartNS)
				}
			}
		}
	}
}

// TestBootStampFallsBackToReplay covers the two cells the stamp cannot
// serve. A ring smaller than the stamp must wrap exactly as Replay's
// emits do. A cell with a fault plane must take Replay: its allocation
// consults and sink-write drops are per cell.
func TestBootStampFallsBackToReplay(t *testing.T) {
	s := snapshotFor(campaignPlan(), hv.Version46(), ModeInjection)
	if s.err != nil {
		t.Fatal(s.err)
	}

	want := newStampSinks(s, 32, nil)
	s.ms.Replay(want.rec, nil, want.tree)
	got := newStampSinks(s, 32, nil)
	s.ms.Apply(got.rec, nil, got.tree, s.fc)
	requireSameSinks(t, "ring of 32", got, want)
	if got.rec.Dropped() == 0 {
		t.Error("ring of 32: nothing wrapped; the case does not exercise the fallback")
	}

	armed := func() *faults.Injector {
		return faults.NewInjector().Arm(faults.SiteSinkWrite, 5)
	}
	want = newStampSinks(s, 0, armed())
	s.ms.Replay(want.rec, want.flt, want.tree)
	got = newStampSinks(s, 0, armed())
	s.ms.Apply(got.rec, got.flt, got.tree, s.fc)
	requireSameSinks(t, "fault plane", got, want)
	if g, w := got.flt.Hits(faults.SiteAlloc), s.ms.BootAllocConsults(); g != w {
		t.Errorf("fault plane: %d allocation consults after Apply, want the boot's %d", g, w)
	}
	if got.rec.Counter("telemetry.sink_errors") != 1 {
		t.Errorf("fault plane: sink_errors = %d, want the one armed drop", got.rec.Counter("telemetry.sink_errors"))
	}
}

// TestBootStampConcurrentFirstUse forks a fresh, uncached snapshot from
// several goroutines at once, as the first cells of a campaign do: one
// of them builds the stamp while the others wait, and every fork must
// still match Replay. Run it under -race.
func TestBootStampConcurrentFirstUse(t *testing.T) {
	s := &envSnapshot{mode: ModeExploit}
	s.build(campaignPlan(), hv.Version48(), ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	want := newStampSinks(s, 0, nil)
	s.ms.Replay(want.rec, nil, want.tree)

	got := make([]stampSinks, 4)
	var wg sync.WaitGroup
	for i := range got {
		got[i] = newStampSinks(s, 0, nil)
		wg.Add(1)
		go func(k stampSinks) {
			defer wg.Done()
			s.ms.Apply(k.rec, nil, k.tree, s.fc)
		}(got[i])
	}
	wg.Wait()
	for i := range got {
		requireSameSinks(t, fmt.Sprintf("fork %d", i), got[i], want)
	}
}
