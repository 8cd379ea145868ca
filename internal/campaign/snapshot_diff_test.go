package campaign_test

// The snapshot differential suite: every artifact the campaign engine
// produces — the JSON export, per-cell canonical traces, the span
// forest — must be byte-identical whether cells boot fresh or fork from
// the (version, mode) snapshot, at any worker count and under seeded
// chaos. This is the guarantee that lets the fork path replace the
// fresh boot without touching a single golden pin.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
)

// withSnapshots flips the process-wide snapshot toggle for one test,
// restoring the previous state afterward.
func withSnapshots(t *testing.T) func(on bool) {
	t.Helper()
	prev := campaign.SnapshotsEnabled()
	t.Cleanup(func() { campaign.EnableSnapshots(prev) })
	return campaign.EnableSnapshots
}

// TestForkVsFreshArtifactByteIdentical compares the full matrix JSON
// artifact between fresh-boot and fork-boot, at workers 1/4/8, without
// faults and under two chaos seeds.
func TestForkVsFreshArtifactByteIdentical(t *testing.T) {
	set := withSnapshots(t)
	export := func(snapshots bool, workers int, seed int64) []byte {
		t.Helper()
		set(snapshots)
		r := &campaign.Runner{Workers: workers}
		var plan *faults.Plan
		if seed >= 0 {
			plan = faults.NewPlan(seed, faults.DefaultDensity)
			r.Faults = plan
			r.ContinueOnError = true
		}
		artifact := exportMatrix(t, r)
		if plan != nil {
			plan.ReleaseAll()
		}
		return artifact
	}
	for _, seed := range []int64{-1, 7, 99} { // -1 = no fault plan
		for _, w := range []int{1, 4, 8} {
			fresh := export(false, w, seed)
			fork := export(true, w, seed)
			if !bytes.Equal(fresh, fork) {
				i := 0
				for i < len(fresh) && i < len(fork) && fresh[i] == fork[i] {
					i++
				}
				lo := max(0, i-80)
				t.Errorf("workers=%d seed=%d: fork artifact diverges from fresh at byte %d\nfresh: ...%s\nfork:  ...%s",
					w, seed, i, fresh[lo:min(i+80, len(fresh))], fork[lo:min(i+80, len(fork))])
			}
		}
	}
}

// TestForkVsFreshCanonicalTracesIdentical compares every default matrix
// cell's canonical telemetry trace (the RQ2 equivalence surface) and
// final counters between fresh-boot and fork-boot.
func TestForkVsFreshCanonicalTracesIdentical(t *testing.T) {
	set := withSnapshots(t)
	collect := func(snapshots bool) map[string]string {
		t.Helper()
		set(snapshots)
		reg := telemetry.NewRegistry()
		r := &campaign.Runner{Workers: 4, Telemetry: reg}
		if _, err := r.RunMatrixContext(context.Background()); err != nil {
			t.Fatalf("snapshots=%v: %v", snapshots, err)
		}
		out := make(map[string]string)
		for _, p := range reg.CellProfiles() {
			version := p.Cell[:strings.IndexByte(p.Cell, '/')]
			c := tracediff.NewCanonicalizer(version, campaign.MachineFrames)
			var sb strings.Builder
			for _, cv := range p.Counters {
				sb.WriteString(cv.Name)
				sb.WriteByte('=')
				sb.WriteString(fmtUint(cv.Value))
				sb.WriteByte('\n')
			}
			for _, e := range c.Events(p.Events) {
				sb.WriteString(e.String())
				sb.WriteByte('\n')
			}
			out[p.Cell] = sb.String()
		}
		return out
	}
	fresh := collect(false)
	fork := collect(true)
	if len(fresh) != len(fork) {
		t.Fatalf("profile counts differ: fresh=%d fork=%d", len(fresh), len(fork))
	}
	for cell, want := range fresh {
		got, ok := fork[cell]
		if !ok {
			t.Errorf("cell %s missing from fork run", cell)
			continue
		}
		if got != want {
			t.Errorf("cell %s: canonical trace diverges\n--- fresh ---\n%s\n--- fork ---\n%s", cell, firstDiffLines(want, got), firstDiffLines(got, want))
		}
	}
}

// TestForkVsFreshSpanForestIdentical compares the campaign's canonical
// span forest between fresh-boot and fork-boot at workers 1/4/8.
func TestForkVsFreshSpanForestIdentical(t *testing.T) {
	set := withSnapshots(t)
	forest := func(snapshots bool, workers int) string {
		t.Helper()
		set(snapshots)
		col := span.NewCollector()
		r := &campaign.Runner{Workers: workers, Spans: col}
		if _, err := r.RunMatrixContext(context.Background()); err != nil {
			t.Fatalf("snapshots=%v workers=%d: %v", snapshots, workers, err)
		}
		return col.Forest().Canonical()
	}
	for _, w := range []int{1, 4, 8} {
		fresh := forest(false, w)
		fork := forest(true, w)
		if fresh != fork {
			t.Errorf("workers=%d: span forest diverges\n%s", w, firstDiffLines(fresh, fork))
		}
	}
}

// fmtUint renders a counter value without pulling in strconv at every
// call site.
func fmtUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// firstDiffLines returns the first few lines around the first differing
// line of a vs b, for readable failure output.
func firstDiffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			lo := max(0, i-2)
			hi := min(i+3, len(al))
			return "line " + fmtUint(uint64(i)) + ":\n" + strings.Join(al[lo:hi], "\n")
		}
	}
	if len(al) != len(bl) {
		return "line counts differ: " + fmtUint(uint64(len(al))) + " vs " + fmtUint(uint64(len(bl)))
	}
	return "(no line-level difference found)"
}
