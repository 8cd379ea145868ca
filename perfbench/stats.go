package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// values, which it sorts in place. It returns NaN for no values.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	return values[rank(len(values), q)-1]
}

// rank is the 1-based nearest-rank index of the q-quantile of n values.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int { return n - rank(n, q) }

// samplesFor returns the smallest sample count that leaves at least
// minBeyond samples above the q-quantile.
func samplesFor(q float64) int {
	n := minBeyond
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// median returns the middle of values, the mean of the two middle ones
// for an even count, leaving values untouched. It returns NaN for no
// values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[n/2]
}

// chunked splits values, in measurement order, into consecutive chunks
// of size (the last one taking the remainder), applies stat to each and
// returns the median of the results. A burst of interference from other
// tenants of the machine then moves a minority of chunks rather than
// the reported value.
func chunked(values []float64, size int, stat func([]float64) float64) float64 {
	n := len(values) / size
	if n <= 1 {
		return stat(append([]float64(nil), values...))
	}
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		end := (i + 1) * size
		if i == n-1 {
			end = len(values)
		}
		per = append(per, stat(append([]float64(nil), values[i*size:end]...)))
	}
	return median(per)
}

// memCounters is a reading of the heap allocation counters.
type memCounters struct {
	mallocs uint64 // heap objects allocated since process start
	bytes   uint64 // heap bytes allocated since process start
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// perCell spreads the allocations between two readings over n cells.
func perCell(before, after memCounters, n int) (allocs, bytes float64) {
	if n <= 0 {
		return math.NaN(), math.NaN()
	}
	return float64(after.mallocs-before.mallocs) / float64(n),
		float64(after.bytes-before.bytes) / float64(n)
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) from the
// current resident set, so the next peakRSSMB reading covers only what
// ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
