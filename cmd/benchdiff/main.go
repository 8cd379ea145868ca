// Command benchdiff compares two benchmark artifacts produced by
// `make bench` (test2json streams of `go test -bench`, e.g.
// BENCH_matrix.json) benchmark by benchmark and reports the ns/op, B/op
// and allocs/op deltas, so a perf regression shows up as a reviewable
// number instead of a hunch. A benchmark whose ns/op grew beyond the threshold ratio
// fails the comparison with a non-zero exit, and so does one whose B/op
// or allocs/op grew by more than 10%. Allocation counts and bytes move
// well under 1% between runs of one build, so that tolerance is fixed;
// only the noisy wall-time threshold is a flag.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 1.10 old.json new.json   # fail on >10% ns/op growth
//
// Names are compared without the -N GOMAXPROCS suffix, so a baseline
// taken on a machine with another core count still lines up.
// Benchmarks present on only one side are reported as added/removed
// but never fail the comparison — the set changes legitimately as the
// suite grows.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the test2json stream benchdiff reads.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// result is one benchmark's parsed measurements.
type result struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
}

// allocTolerance is the fixed ratio new/old B/op or allocs/op may
// reach before a benchmark counts as regressed.
const allocTolerance = 1.10

// grew reports whether a measurement grew beyond ratio over its
// baseline. A side that did not report the measurement (0) never fails.
func grew(old, new, ratio float64) bool {
	return old > 0 && new > 0 && new/old > ratio
}

// benchLine matches a complete benchmark result line in the
// reassembled output stream. Names carry the -N GOMAXPROCS suffix and
// sub-benchmark paths; measurements beyond ns/op are optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// parse reads a test2json stream and extracts benchmark results. The
// test binary's output is split across Output events at arbitrary
// points (a benchmark's name and its measurements often arrive in
// separate events), so the events are concatenated before line
// parsing. A benchmark that ran more than once keeps its last run.
func parse(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var out strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: line %d: not a test2json event: %w", path, line, err)
		}
		if ev.Action == "output" {
			out.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	results := make(map[string]result)
	for _, l := range strings.Split(out.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(l))
		if m == nil {
			continue
		}
		r := result{}
		r.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			r.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" {
			r.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		results[m[1]] = r
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return stripProcs(results), nil
}

// procSuffix matches the -N GOMAXPROCS suffix `go test` appends to
// every benchmark name when GOMAXPROCS is not 1.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// stripProcs drops the GOMAXPROCS suffix when every name in one run
// carries the same one, so baselines taken on machines with different
// core counts still compare benchmark by benchmark. A run at
// GOMAXPROCS=1 has no suffix, and its names are left alone.
func stripProcs(results map[string]result) map[string]result {
	suffix := ""
	for name := range results {
		s := procSuffix.FindString(name)
		if s == "" || s == "-1" || (suffix != "" && s != suffix) {
			return results
		}
		suffix = s
	}
	out := make(map[string]result, len(results))
	for name, r := range results {
		out[strings.TrimSuffix(name, suffix)] = r
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	threshold := flag.Float64("threshold", 1.25, "fail when any benchmark's new/old ns/op ratio exceeds this")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Fatalf("usage: benchdiff [-threshold 1.25] old.json new.json")
	}
	if *threshold <= 0 {
		log.Fatalf("-threshold: want a positive ratio, got %g", *threshold)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	oldR, err := parse(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newR, err := parse(newPath)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, len(oldR)+len(newR))
	seen := make(map[string]bool)
	for n := range oldR {
		names = append(names, n)
		seen[n] = true
	}
	for n := range newR {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	fmt.Printf("%-52s %14s %14s %8s %8s %8s\n", "Benchmark", "old ns/op", "new ns/op", "ns", "B", "allocs")
	fmt.Println(strings.Repeat("-", 110))
	regressed := 0
	for _, n := range names {
		o, inOld := oldR[n]
		nw, inNew := newR[n]
		switch {
		case !inOld:
			fmt.Printf("%-52s %14s %14.0f %8s\n", n, "-", nw.NsPerOp, "added")
		case !inNew:
			fmt.Printf("%-52s %14.0f %14s %8s\n", n, o.NsPerOp, "-", "removed")
		default:
			var why []string
			if grew(o.NsPerOp, nw.NsPerOp, *threshold) {
				why = append(why, "ns/op")
			}
			if grew(o.BytesPerOp, nw.BytesPerOp, allocTolerance) {
				why = append(why, "B/op")
			}
			if grew(o.AllocsPerOp, nw.AllocsPerOp, allocTolerance) {
				why = append(why, "allocs/op")
			}
			mark := ""
			if len(why) > 0 {
				mark = " REGRESSED (" + strings.Join(why, ", ") + ")"
				regressed++
			}
			fmt.Printf("%-52s %14.0f %14.0f %8s %8s %8s%s\n", n, o.NsPerOp, nw.NsPerOp,
				delta(o.NsPerOp, nw.NsPerOp), delta(o.BytesPerOp, nw.BytesPerOp), delta(o.AllocsPerOp, nw.AllocsPerOp), mark)
		}
	}
	if regressed > 0 {
		log.Fatalf("%d benchmark(s) regressed beyond %.2fx ns/op or %.2fx B/op, allocs/op (%s -> %s)",
			regressed, *threshold, allocTolerance, oldPath, newPath)
	}
	fmt.Printf("ok: no benchmark regressed beyond %.2fx ns/op or %.2fx B/op, allocs/op\n", *threshold, allocTolerance)
}

// delta renders the relative change of one measurement, "-" when
// either side did not report it.
func delta(old, new float64) string {
	if old <= 0 || new <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (new/old-1)*100)
}
