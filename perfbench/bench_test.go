package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// The benchmark reads the committed ledger baseline relative
// to the repository root, as run.sh runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := percentile(append([]float64(nil), values...), tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values is not NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesFor(0.9); got != 100 {
		t.Fatalf("samplesFor(0.9) = %d, want 100", got)
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(99, 0.9); got >= minBeyond {
		t.Errorf("beyond(99, 0.9) = %d, want fewer than %d", got, minBeyond)
	}
	if got := samplesFor(0.5); beyond(got, 0.5) < minBeyond || beyond(got-1, 0.5) >= minBeyond {
		t.Errorf("samplesFor(0.5) = %d is not the smallest count with %d beyond", got, minBeyond)
	}
}

// fakeWorkload allocates allocsPerCell heap objects for each of its cells
// and fails the check of every campaign listed in mismatch.
type fakeWorkload struct {
	cells, allocsPerCell int
	mismatch             map[int]bool
	n                    int
}

var fakeSink []*[64]byte

func (w *fakeWorkload) run(context.Context) (int, func() error, error) {
	i := w.n
	w.n++
	for c := 0; c < w.cells*w.allocsPerCell; c++ {
		fakeSink[c] = new([64]byte)
	}
	return w.cells, func() error {
		if w.mismatch[i] {
			return errMismatch
		}
		return nil
	}, nil
}

func TestMemStatsDeltaPerCell(t *testing.T) {
	w := &fakeWorkload{cells: 1000, allocsPerCell: 3}
	fakeSink = make([]*[64]byte, w.cells*w.allocsPerCell)
	tl := &tally{log: io.Discard}
	s, ok := once(context.Background(), w, tl)
	if !ok {
		t.Fatal("campaign failed")
	}
	// The closure the campaign returns and the runtime's own bookkeeping
	// add a few objects to the campaign, not to each cell.
	if s.allocs < 3 || s.allocs > 3.01 {
		t.Errorf("allocs per cell = %v, want 3", s.allocs)
	}
	if s.bytes < 3*64 || s.bytes > 3*64+1 {
		t.Errorf("bytes per cell = %v, want 192", s.bytes)
	}
	if s.cells != 1000 || s.ms <= 0 {
		t.Errorf("sample = %+v", s)
	}
}

func TestForcedMismatchCountsAsFailure(t *testing.T) {
	fakeSink = make([]*[64]byte, 1)
	w := &fakeWorkload{cells: 1, allocsPerCell: 1, mismatch: map[int]bool{0: true, 5: true, 6: true}}
	tl := &tally{log: io.Discard}
	samples := loop(context.Background(), w, 0, 20, tl)
	if tl.failed != 3 {
		t.Errorf("failed = %d, want 3", tl.failed)
	}
	// Campaigns 0 and 1 warm up; the checks of 0, 5 and 6 fail.
	if want := len(samples) + 1 + 3; tl.attempted != want {
		t.Errorf("attempted = %d, want %d: %d samples, 1 passing warm-up, 3 failures", tl.attempted, want, len(samples))
	}
	if len(samples) < 20 {
		t.Errorf("loop returned %d samples, want at least 20", len(samples))
	}
}

func TestMatrixMismatchFails(t *testing.T) {
	for _, fresh := range []bool{false, true} {
		w, err := newMatrixPlain(1, fresh)
		if err != nil {
			t.Fatal(err)
		}
		tl := &tally{log: io.Discard}
		if _, ok := once(context.Background(), w, tl); !ok {
			t.Fatalf("fresh=%v: the matrix does not match the baseline", fresh)
		}
		w.want = strings.Replace(w.want, "4.6", "4.7", 1)
		if _, ok := once(context.Background(), w, tl); ok || tl.failed != 1 {
			t.Errorf("fresh=%v: forced matrix mismatch: ok=%v failed=%d, want a failure", fresh, ok, tl.failed)
		}
	}
}

func TestLedgerCampaignChecks(t *testing.T) {
	w := newMatrixLedger(2, t.TempDir())
	w.timings = &ledgerTimings{}
	tl := &tally{log: io.Discard}
	s, ok := once(context.Background(), w, tl)
	if !ok {
		t.Fatal("matrix-ledger campaign failed its checks")
	}
	if s.cells != 102 || w.timings.record == nil || len(w.timings.diffMS) != 1 {
		t.Errorf("cells = %d, timings = %+v", s.cells, w.timings)
	}
}

func TestAgreementCheck(t *testing.T) {
	if err := agree("x", "p", "a=1", "a=1"); err != nil {
		t.Errorf("identical counts disagree: %v", err)
	}
	if err := agree("x", "p", "a=1 b=2", "a=1 b=3"); err == nil || !strings.Contains(err.Error(), "b=2") || !strings.Contains(err.Error(), "b=3") {
		t.Errorf("different counts: %v, want an error naming b=2 and b=3", err)
	}
	plain, err := newMatrixPlain(2, false)
	if err != nil {
		t.Fatal(err)
	}
	tl := &tally{log: io.Discard}
	c := countPass(context.Background(), plain, 2, tl)
	if tl.failed != 0 || tl.attempted != countReps+1+countReps {
		t.Errorf("count pass: %d of %d checks failed", tl.failed, tl.attempted)
	}
	if c.cells != 102 || c.emitted == 0 || len(c.perCell) != 102 {
		t.Errorf("count pass: cells=%d emitted=%d perCell=%d", c.cells, c.emitted, len(c.perCell))
	}
	tl = &tally{log: io.Discard}
	lg := ledgerPass(context.Background(), 2, t.TempDir(), tl)
	if tl.failed != 0 {
		t.Errorf("ledger pass: %d of %d checks failed", tl.failed, tl.attempted)
	}
	if lg.unionEdges == 0 || lg.spansPerCell == 0 {
		t.Errorf("ledger pass: union edges %d, spans per cell %v", lg.unionEdges, lg.spansPerCell)
	}
	tl = &tally{log: io.Discard}
	if share := fuzzPass(tl); tl.failed != 0 || share <= 0 || share >= 1 {
		t.Errorf("fuzz pass: %d of %d checks failed, reject share %v", tl.failed, tl.attempted, share)
	}
}

func TestResultLine(t *testing.T) {
	r := &result{attempted: 3, failed: 1}
	r.add("campaign_p50_ms", "ms", 1.5)
	line, err := r.marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] != false || got["attempted"] != 3.0 || got["failed"] != 1.0 {
		t.Errorf("result line = %s", line)
	}
	r.add("setup_s", "s", math.NaN())
	if _, err := r.marshal(); err == nil {
		t.Error("a NaN metric marshalled")
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", wlFresh, "--seed", "7", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || o.workload != wlFresh || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wlPlain, "--trace", "2"},
		{"--workload", wlPlain, "--seconds", "0"},
		{"--workload", wlPlain, "extra"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
