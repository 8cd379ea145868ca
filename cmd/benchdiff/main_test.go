package main

import (
	"reflect"
	"testing"
)

func TestStripProcs(t *testing.T) {
	r := result{NsPerOp: 1}
	for _, tc := range []struct {
		name string
		in   []string
		want []string
	}{
		{"suffixed run", []string{"BenchmarkA-2", "BenchmarkB/workers-1-2"}, []string{"BenchmarkA", "BenchmarkB/workers-1"}},
		{"GOMAXPROCS=1 run", []string{"BenchmarkA", "BenchmarkB/workers-1"}, []string{"BenchmarkA", "BenchmarkB/workers-1"}},
		{"mixed suffixes", []string{"BenchmarkB/workers-2", "BenchmarkB/workers-4"}, []string{"BenchmarkB/workers-2", "BenchmarkB/workers-4"}},
	} {
		in := make(map[string]result)
		for _, n := range tc.in {
			in[n] = r
		}
		want := make(map[string]result)
		for _, n := range tc.want {
			want[n] = r
		}
		if got := stripProcs(in); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stripProcs(%v) = %v, want %v", tc.name, tc.in, got, want)
		}
	}
}

func TestGrew(t *testing.T) {
	for _, tc := range []struct {
		old, new, ratio float64
		want            bool
	}{
		{100, 110, allocTolerance, false},
		{100, 111, allocTolerance, true},
		{0, 500, allocTolerance, false},
		{100, 0, allocTolerance, false},
		{100, 250, 2.0, true},
	} {
		if got := grew(tc.old, tc.new, tc.ratio); got != tc.want {
			t.Errorf("grew(%g, %g, %g) = %v, want %v", tc.old, tc.new, tc.ratio, got, tc.want)
		}
	}
}
