// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop campaign workloads for a fixed time, checks every
// campaign's output against a reference, and prints the end-to-end
// metrics (host time, tracing off) or, with -trace 1, the per-layer
// decomposition. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload matrix-plain --seed 1 --seconds 10 --trace 0
//
// README.md next to this file documents the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workload names.
const (
	wlPlain  = "matrix-plain"
	wlLedger = "matrix-ledger"
	wlFresh  = "matrix-fresh-boot"
)

// setupProbes is how many cold starts a run times for setup_s. A cold
// start of matrix-plain takes about 14 ms, so a single one is mostly
// process start-up jitter; the median of this many is not.
const setupProbes = 41

// maxLoopSeconds caps a timed loop that has not yet gathered enough
// samples, so a run always ends in bounded time.
const maxLoopSeconds = 100

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	setupProbe bool
}

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (accepted and printed; the matrix workloads have no random input)")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "time one cold start to the first checked campaign and exit (internal)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("-trace: want 0 or 1, got %d", *trace)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds: want at least 1, got %d", o.seconds)
	case !slices.Contains(workloads, o.workload):
		return o, fmt.Errorf("-workload: want one of %s, got %q", strings.Join(workloads, ", "), o.workload)
	}
	return o, nil
}

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// Scratch space for ledger stores lives inside the checkout, under
	// the build directory, and goes away with the run.
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	ctx := context.Background()

	var res *result
	switch {
	case o.setupProbe:
		err = setupProbe(ctx, start, o, scratch, stdout)
	case o.trace:
		res, err = traced(ctx, o, scratch, stdout)
	default:
		res, err = endToEnd(ctx, o, scratch, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res == nil {
		return 0
	}
	line, err := res.marshal()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workers is the pool size of the matrix workloads: one per CPU.
func workers() int { return runtime.NumCPU() }

var workloads = []string{wlPlain, wlLedger, wlFresh}

func newWorkload(name string, workers int, scratch string) (workload, error) {
	if name == wlLedger {
		return newMatrixLedger(workers, scratch), nil
	}
	return newMatrixPlain(workers, name == wlFresh)
}

// result is the benchmark's final line.
type result struct {
	attempted, failed int
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

func (r *result) marshal() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		ms[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
}

// tally counts campaigns and reports the first few failures.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) note(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintln(t.log, "FAIL:", err)
	}
	return false
}

// sample is one checked campaign of a timed loop.
type sample struct {
	ms            float64
	cells         int
	allocs, bytes float64 // per cell
	rssMB         float64 // peak resident set during the campaign
}

// once runs and checks one campaign, timing only the campaign itself
// and reading the allocation counters and the peak resident set around
// that window.
func once(ctx context.Context, w workload, t *tally) (sample, bool) {
	if err := resetPeakRSS(); err != nil {
		t.note(err)
		return sample{}, false
	}
	m0 := readMem()
	sw := startSpan()
	cells, check, err := w.run(ctx)
	ms := sw.ms()
	m1 := readMem()
	rss, rerr := peakRSSMB()
	if err == nil {
		err = check()
	}
	if err == nil {
		err = rerr
	}
	if !t.note(err) {
		return sample{}, false
	}
	allocs, bytes := perCell(m0, m1, cells)
	return sample{ms: ms, cells: cells, allocs: allocs, bytes: bytes, rssMB: rss}, true
}

// loop warms the workload up, then runs campaigns until both the time
// budget is spent and the tail percentile has enough samples beyond it
// (or maxLoopSeconds passes).
func loop(ctx context.Context, w workload, seconds float64, minSamples int, t *tally) []sample {
	for i := 0; i < 2; i++ {
		once(ctx, w, t)
	}
	var out []sample
	begin := time.Now()
	for {
		el := time.Since(begin).Seconds()
		if (el >= seconds && len(out) >= minSamples) || el >= maxLoopSeconds {
			return out
		}
		if s, ok := once(ctx, w, t); ok {
			out = append(out, s)
		}
	}
}

// summary is the end-to-end view of a timed loop.
type summary struct {
	n             int
	p50, p90      float64 // ms per campaign
	cellsPerS     float64
	allocs, bytes float64 // per cell, median over campaigns
	rssMB         float64 // median over campaigns of each one's peak
}

// summarize reports each timing as the median over consecutive chunks
// of campaigns, each chunk just large enough to leave minBeyond samples
// above its percentile.
func summarize(samples []sample) summary {
	s := summary{n: len(samples)}
	ms := make([]float64, 0, s.n)
	cellsPerS := make([]float64, 0, s.n)
	allocs := make([]float64, 0, s.n)
	bytes := make([]float64, 0, s.n)
	rss := make([]float64, 0, s.n)
	for _, x := range samples {
		rss = append(rss, x.rssMB)
		ms = append(ms, x.ms)
		cellsPerS = append(cellsPerS, float64(x.cells)/(x.ms/1000))
		allocs = append(allocs, x.allocs)
		bytes = append(bytes, x.bytes)
	}
	p := func(q float64) func([]float64) float64 {
		return func(v []float64) float64 { return percentile(v, q) }
	}
	s.p50 = chunked(ms, samplesFor(0.5), p(0.5))
	s.p90 = chunked(ms, samplesFor(0.9), p(0.9))
	// Throughput over a chunk is its cells over its summed campaign time:
	// the harmonic mean of the per-campaign rates, weighted by cells.
	s.cellsPerS = chunked(cellsPerS, samplesFor(0.5), func(v []float64) float64 {
		var inv float64
		for _, r := range v {
			inv += 1 / r
		}
		return float64(len(v)) / inv
	})
	s.allocs = median(allocs)
	s.bytes = median(bytes)
	s.rssMB = median(rss)
	return s
}

// endToEnd is the untraced run: cold-start probes for setup_s, then the
// timed loop.
func endToEnd(ctx context.Context, o options, scratch string, stdout io.Writer) (*result, error) {
	t := &tally{log: stdout}
	setups, err := coldStarts(ctx, o, t)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(o.workload, workers(), scratch)
	if err != nil {
		return nil, err
	}
	samples := loop(ctx, w, float64(o.seconds), samplesFor(0.9), t)
	if len(samples) == 0 {
		return nil, errors.New("no campaign completed")
	}
	s := summarize(samples)
	setup := median(setups)
	fmt.Fprintf(stdout, "workload %s  seed %d  workers %d  campaigns %d\n", o.workload, o.seed, workers(), s.n)
	fmt.Fprintf(stdout, "  campaign_p50_ms %.4f  campaign_p90_ms %.4f  cells_per_s %.1f\n", s.p50, s.p90, s.cellsPerS)
	fmt.Fprintf(stdout, "  allocs_per_cell %.2f  alloc_bytes_per_cell %.1f  peak_rss_mb %.1f  setup_s %.4f (median of %d cold starts, %.4f to %.4f)\n",
		s.allocs, s.bytes, s.rssMB, setup, len(setups), slices.Min(setups), slices.Max(setups))
	fmt.Fprintf(stdout, "  failed_share %g (%d of %d campaigns)\n", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)

	res := &result{attempted: t.attempted, failed: t.failed}
	res.add("campaign_p50_ms", "ms", s.p50)
	res.add("campaign_p90_ms", "ms", s.p90)
	res.add("cells_per_s", "1/s", s.cellsPerS)
	res.add("allocs_per_cell", "count", s.allocs)
	res.add("alloc_bytes_per_cell", "B", s.bytes)
	res.add("peak_rss_mb", "MB", s.rssMB)
	res.add("setup_s", "s", setup)
	return res, nil
}

// coldStarts times setupProbes fresh processes of this binary from
// start to their first checked campaign.
func coldStarts(ctx context.Context, o options, t *tally) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", o.workload)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if !t.note(probeErr(err, stderr.String())) {
			continue
		}
		v, err := lastFloat(stdout)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("every setup probe failed")
	}
	return out, nil
}

func probeErr(err error, stderr string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("setup probe: %w: %s", err, strings.TrimSpace(stderr))
}

// lastFloat parses the last line of out as a number.
func lastFloat(out []byte) (float64, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	return strconv.ParseFloat(strings.TrimSpace(last), 64)
}

// setupProbe is the child side of coldStarts: load the references, run
// and check the first campaign, and print the seconds since the
// process started.
func setupProbe(ctx context.Context, start time.Time, o options, scratch string, stdout io.Writer) error {
	w, err := newWorkload(o.workload, workers(), scratch)
	if err != nil {
		return err
	}
	_, check, err := w.run(ctx)
	if err == nil {
		err = check()
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, time.Since(start).Seconds())
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
