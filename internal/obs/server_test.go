package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/telemetry"
)

// TestWriteMetricsFormat pins the Prometheus text exposition down to
// the line level: counter series names, cumulative histogram buckets,
// sum/count, and the quantile gauge series a dashboard scrapes.
func TestWriteMetricsFormat(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("hypercall.mmu_update").Add(3)
	reg.Counter("verdict/evidence").Add(1) // '/' must fold to '_'
	h := reg.Histogram("cell.wall_ns")
	// Buckets: 3 -> (2,4], 5 -> (4,8], 9 -> (8,16]. Cumulative counts
	// must therefore read 1, 2, 3.
	for _, v := range []uint64{3, 5, 9} {
		h.Observe(v)
	}

	var b strings.Builder
	WriteMetrics(&b, reg)
	out := b.String()

	for _, want := range []string{
		"# TYPE repro_hypercall_mmu_update_total counter",
		"repro_hypercall_mmu_update_total 3",
		"repro_verdict_evidence_total 1",
		"# TYPE repro_cell_wall_ns histogram",
		`repro_cell_wall_ns_bucket{le="4"} 1`,
		`repro_cell_wall_ns_bucket{le="8"} 2`,
		`repro_cell_wall_ns_bucket{le="16"} 3`,
		`repro_cell_wall_ns_bucket{le="+Inf"} 3`,
		"repro_cell_wall_ns_sum 17",
		"repro_cell_wall_ns_count 3",
		"# TYPE repro_cell_wall_ns_quantile gauge",
		`repro_cell_wall_ns_quantile{quantile="0.5"}`,
		`repro_cell_wall_ns_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteMetricsSaturatedBucket folds the 2^64 overflow bucket into
// +Inf instead of emitting an le="18446744073709551615" series, which
// Prometheus would mis-sort.
func TestWriteMetricsSaturatedBucket(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Histogram("cell.wall_ns").Observe(^uint64(0))

	var b strings.Builder
	WriteMetrics(&b, reg)
	out := b.String()
	if strings.Contains(out, `le="18446744073709551615"`) {
		t.Errorf("saturated bucket emitted as finite series:\n%s", out)
	}
	if !strings.Contains(out, `repro_cell_wall_ns_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf bucket does not carry the saturated observation:\n%s", out)
	}
}

// get fetches a URL and returns status, content type, and body.
func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServerLiveCampaign serves a campaign's registry and scheduler
// timeline the way -listen does, runs the full matrix, and scrapes all
// three endpoints while and after the run: /cells must converge to
// every cell done, /metrics must expose the aggregated registry,
// /healthz must answer throughout.
func TestServerLiveCampaign(t *testing.T) {
	reg := telemetry.NewRegistry()
	tl := events.NewTimeline()
	srv := NewServer(reg)
	srv.SetSchedule(tl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	r := &campaign.Runner{Workers: 4, Telemetry: reg, Sched: tl}
	done := make(chan error, 1)
	go func() {
		_, err := r.RunMatrix()
		done <- err
	}()

	// Scrape /cells live until the campaign settles every cell. The
	// matrix is 102 cells; poll with a deadline so a wedged campaign
	// fails loudly instead of hanging the test.
	deadline := time.Now().Add(30 * time.Second)
	var cells []events.CellState
	for {
		status, ctype, body := get(t, base+"/cells")
		if status != http.StatusOK {
			t.Fatalf("/cells status %d", status)
		}
		if !strings.Contains(ctype, "application/json") {
			t.Fatalf("/cells content type %q", ctype)
		}
		cells = cells[:0]
		if err := json.Unmarshal([]byte(body), &cells); err != nil {
			t.Fatalf("/cells is not JSON: %v\n%s", err, body)
		}
		settled := 0
		for _, c := range cells {
			if c.Status == events.StatusDone || c.Status == events.StatusError {
				settled++
			}
		}
		if len(cells) == 102 && settled == 102 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not settle: %d cells, %d settled", len(cells), settled)
		}
		// /healthz must answer while cells are in flight.
		if status, _, body := get(t, base+"/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
			t.Fatalf("/healthz during run: status %d body %q", status, body)
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("matrix: %v", err)
	}

	for _, c := range cells {
		if c.Status != events.StatusDone {
			t.Errorf("cell %s finished %s, want done", c.Cell, c.Status)
		}
		if c.WallNS <= 0 {
			t.Errorf("cell %s has no wall time", c.Cell)
		}
	}

	status, ctype, body := get(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"repro_cell_wall_ns_count 102",
		"repro_hypercall_mmu_update_total",
		`repro_cell_wall_ns_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// profileSink is a SchedObserver keeping each cell's last settled
// profile, the ground truth for /cells' telemetry activity.
type profileSink struct {
	mu       sync.Mutex
	profiles map[string]*telemetry.CellProfile
}

func (p *profileSink) BatchQueued([]string)              {}
func (p *profileSink) CellDispatched(string, int, int64) {}
func (p *profileSink) CellSettled(cell string, _ int, _, _ int64, profile *telemetry.CellProfile, _ *campaign.CellError) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.profiles[cell] = profile
}

// TestCellsServedFromTimeline checks /cells against the campaign it
// observed: a profiled seeded chaos matrix under -continue-on-error
// semantics, its timeline served the way -listen does. /cells lists
// each cell once, in announce order, with failed cells' class and
// message and every profiled cell's telemetry activity. A later
// Runner.Run cell, never announced, still joins a timeline's listing.
func TestCellsServedFromTimeline(t *testing.T) {
	tl := events.NewTimeline()
	srv := NewServer(nil)
	srv.SetSchedule(tl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	plan := faults.NewPlan(7, faults.DefaultDensity)
	defer plan.ReleaseAll()
	sink := &profileSink{profiles: make(map[string]*telemetry.CellProfile)}
	r := &campaign.Runner{Workers: 4, ContinueOnError: true, Faults: plan, Telemetry: telemetry.NewRegistry(),
		Sched: events.Fanout{tl, sink}}
	entries, err := r.RunMatrix()
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := get(t, "http://"+addr.String()+"/cells")
	if status != http.StatusOK {
		t.Fatalf("/cells status %d", status)
	}
	var cells []events.CellState
	if err := json.Unmarshal([]byte(body), &cells); err != nil {
		t.Fatalf("/cells is not JSON: %v", err)
	}
	if len(cells) != len(entries) {
		t.Fatalf("/cells lists %d cells, the matrix has %d", len(cells), len(entries))
	}
	failed, profiled, dropped := 0, 0, uint64(0)
	for i, e := range entries {
		c := cells[i]
		id := e.Version + "/" + e.UseCase + "/" + string(e.Mode)
		if c.Cell != id {
			t.Fatalf("/cells[%d] = %s, announce order has %s", i, c.Cell, id)
		}
		if e.Err != nil {
			failed++
			if c.Status != events.StatusError || c.Class != string(e.Err.Class) || c.Error != e.Err.Message {
				t.Errorf("%s: /cells %+v, failure record %v", id, c, e.Err)
			}
		} else if c.Status != events.StatusDone || c.Class != "" || c.Error != "" {
			t.Errorf("%s: /cells %+v for a clean cell", id, c)
		}
		if c.WallNS <= 0 {
			t.Errorf("%s: no wall time", id)
		}
		if p := sink.profiles[id]; p != nil {
			profiled++
			if c.Events != uint64(len(p.Events))+p.DroppedEvents || c.Dropped != p.DroppedEvents {
				t.Errorf("%s: /cells lists %d events, %d dropped; its profile has %d retained, %d dropped",
					id, c.Events, c.Dropped, len(p.Events), p.DroppedEvents)
			}
			dropped += c.Dropped
		}
	}
	if failed == 0 || profiled == 0 || dropped == 0 {
		t.Errorf("chaos seed 7 gave %d failed cells, %d profiled, %d dropped events; the test misses a case",
			failed, profiled, dropped)
	}

	solo := events.NewTimeline()
	if _, err := (&campaign.Runner{Sched: solo}).Run(hv.Version46(), "XSA-148-priv", campaign.ModeInjection); err != nil {
		t.Fatal(err)
	}
	if got := solo.Cells(); len(got) != 1 || got[0].Cell != "4.6/XSA-148-priv/injection" || got[0].Status != events.StatusDone {
		t.Errorf("unannounced Runner.Run cell listed as %+v", got)
	}
}

// TestServerShutdown verifies an orderly stop: the port answers before,
// Shutdown returns without error, and the port refuses after.
func TestServerShutdown(t *testing.T) {
	srv := NewServer(telemetry.NewRegistry())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	if status, _, _ := get(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz before shutdown: %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("%s/healthz", base)); err == nil {
		t.Error("server still answering after Shutdown")
	}
}
