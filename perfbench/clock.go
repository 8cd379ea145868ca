package main

import "time"

// stopwatch times one span of the benchmark's own calls.
type stopwatch struct{ t time.Time }

func startSpan() stopwatch { return stopwatch{time.Now()} }

func (s stopwatch) ns() float64 { return float64(time.Since(s.t).Nanoseconds()) }
func (s stopwatch) us() float64 { return s.ns() / 1e3 }
func (s stopwatch) ms() float64 { return s.ns() / 1e6 }
