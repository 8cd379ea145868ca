package tracediff

import (
	"testing"

	"repro/internal/campaign"
)

// renderLines is the reference rendering of a canonical stream.
func renderLines(evs []Event) []string {
	out := make([]string, 0, len(evs))
	for _, e := range evs {
		out = append(out, e.String())
	}
	return out
}

// TestCanonicalStreamsMatchFullCanonicalization is the differential
// check on CanonicalStreams, which selects effect events before it
// canonicalizes them: for every matrix cell its lines must equal those
// of the reference path, which canonicalizes the whole trace and
// filters after.
func TestCanonicalStreamsMatchFullCanonicalization(t *testing.T) {
	entries := runProfiledMatrix(t)
	var effectLines, auditLines int
	for i := range entries {
		e := &entries[i]
		cell := e.Version + "/" + e.UseCase + "/" + string(e.Mode)
		full := NewCanonicalizer(e.Version, campaign.MachineFrames).Events(e.Result.Profile.Events)
		gotEff, gotAudit := CanonicalStreams(e.Version, campaign.MachineFrames, e.Result.Profile.Events)
		for _, s := range []struct {
			name      string
			got, want []string
		}{
			{"effects", gotEff, renderLines(effects(full))},
			{"state audit", gotAudit, renderLines(stateAudit(full))},
		} {
			if len(s.got) != len(s.want) {
				t.Errorf("%s %s: %d lines, reference has %d", cell, s.name, len(s.got), len(s.want))
				continue
			}
			for j := range s.want {
				if s.got[j] != s.want[j] {
					t.Errorf("%s %s line %d:\n got  %s\n want %s", cell, s.name, j, s.got[j], s.want[j])
					break
				}
			}
		}
		effectLines += len(gotEff)
		auditLines += len(gotAudit)
	}
	if effectLines == 0 || auditLines == 0 {
		t.Fatalf("vacuous comparison: %d effect and %d audit lines over %d cells", effectLines, auditLines, len(entries))
	}
	t.Logf("%d cells: %d effect lines, %d audit lines identical", len(entries), effectLines, auditLines)
}
