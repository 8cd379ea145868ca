package telemetry

// The ring grows on demand up to its bound. These tests hold it to the
// preallocated ring it replaced: same retained events in the same wrap
// order, same Seq, same drop accounting, at and around the bound.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/faults"
)

// refRing is the oracle: a ring preallocated to its full bound that
// wraps at cap, with the sink fault decided by write index.
type refRing struct {
	ring        []Event
	emitted     uint64
	sinkDropped uint64
}

func newRefRing(n int) *refRing { return &refRing{ring: make([]Event, 0, n)} }

// emit lands e unless fault is set, in which case the write is dropped
// before it is sequenced.
func (r *refRing) emit(e Event, fault bool) {
	if fault {
		r.sinkDropped++
		return
	}
	e.Seq = r.emitted
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.emitted%uint64(cap(r.ring))] = e
	}
	r.emitted++
}

func (r *refRing) dropped() uint64 {
	if n := uint64(cap(r.ring)); r.emitted > n {
		return r.emitted - n + r.sinkDropped
	}
	return r.sinkDropped
}

func (r *refRing) events() []Event {
	if r.emitted > uint64(cap(r.ring)) {
		cur := int(r.emitted % uint64(cap(r.ring)))
		return append(append([]Event{}, r.ring[cur:]...), r.ring[:cur]...)
	}
	return append([]Event{}, r.ring...)
}

// TestRingMatchesPreallocatedReference emits around the bound of a
// 100-event recorder — empty, one short, exactly full, one over, and
// wrapped more than twice — with and without a sink-write fault, and
// compares every observable with the preallocated reference ring.
func TestRingMatchesPreallocatedReference(t *testing.T) {
	const bound = 100
	for _, n := range []int{0, 99, 100, 101, 250} {
		// faultAt is the 1-based write the sink fault drops; 0 arms none.
		for _, faultAt := range []int{0, 1, 50, 100, 101, 250} {
			t.Run(fmt.Sprintf("emit%d/fault%d", n, faultAt), func(t *testing.T) {
				r := NewRecorder(bound)
				if faultAt > 0 {
					r.AttachFaults(faults.NewInjector().Arm(faults.SiteSinkWrite, uint64(faultAt)))
				}
				ref := newRefRing(bound)
				for i := 0; i < n; i++ {
					line := fmt.Sprintf("line %d", i)
					r.ScenarioStep("uc", line)
					ref.emit(Event{Kind: KindScenarioStep, Label: "uc", Detail: line}, i+1 == faultAt)
				}
				if got, want := r.Emitted(), ref.emitted; got != want {
					t.Errorf("Emitted = %d, want %d", got, want)
				}
				if got, want := r.Dropped(), ref.dropped(); got != want {
					t.Errorf("Dropped = %d, want %d", got, want)
				}
				got, want := r.Events(), ref.events()
				if len(got) != len(want) {
					t.Fatalf("retained %d events, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
					}
				}
				if len(got) > 0 && got[len(got)-1].Seq != r.Emitted()-1 {
					t.Errorf("newest Seq = %d, want %d", got[len(got)-1].Seq, r.Emitted()-1)
				}
			})
		}
	}
}

// recorderSink keeps the measured recorders reachable so the compiler
// cannot place them on the stack.
var recorderSink []*Recorder

// TestNewRecorderDoesNotPreallocate pins the on-demand ring: a default
// recorder costs its struct and an empty counter map, not its bound.
func TestNewRecorderDoesNotPreallocate(t *testing.T) {
	const runs = 100
	recorderSink = make([]*Recorder, 0, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recorderSink = append(recorderSink, NewRecorder(0))
	}
	runtime.ReadMemStats(&after)
	recorderSink = nil
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("NewRecorder(0) allocates %d B, want < 1 KiB", per)
	}
}
