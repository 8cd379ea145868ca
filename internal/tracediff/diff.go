package tracediff

// The structural diff. Equivalent runs produce structurally equal
// canonical streams, so the comparison is lockstep: the first index
// where the streams disagree — or where one ends early — is the
// divergence, reported with both events as evidence. No alignment
// recovery (LCS) is attempted: a diverging cell is a finding to
// investigate, and the first disagreement is exactly where to look.

// Tier is a cell's equivalence verdict.
type Tier string

// Verdict tiers, strongest first.
const (
	// TierIdentical means the full canonical streams — mechanism
	// included — are equal. Only runs of the same mode can earn it.
	TierIdentical Tier = "identical"
	// TierEquivalent means the effect streams are equal: the runs did
	// the same thing to the system through different mechanisms. This
	// is the RQ2 claim at event granularity.
	TierEquivalent Tier = "equivalent-modulo-noise"
	// TierDivergent means the compared streams disagree.
	TierDivergent Tier = "divergent"
)

// Divergence is the first point of disagreement between two compared
// streams: the canonical index and both events' rendered forms
// (Absent when one stream ended early).
type Divergence struct {
	// Index is the 0-based position in the compared canonical streams.
	Index int `json:"index"`
	// A and B render the disagreeing events.
	A string `json:"a"`
	B string `json:"b"`
	// ALine and BLine are 1-based JSONL source lines for offline
	// traces, 0 in-process.
	ALine int `json:"a_line,omitempty"`
	BLine int `json:"b_line,omitempty"`
}

// Absent marks the side of a divergence whose stream ended early.
const Absent = "<absent>"

// firstDivergence compares two canonical streams in lockstep and
// returns the first disagreement, nil if the streams are equal.
func firstDivergence(a, b []Event) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !a[i].equal(b[i]) {
			return &Divergence{Index: i, A: a[i].String(), B: b[i].String(), ALine: a[i].Line, BLine: b[i].Line}
		}
	}
	switch {
	case len(a) > n:
		return &Divergence{Index: n, A: a[n].String(), B: Absent, ALine: a[n].Line}
	case len(b) > n:
		return &Divergence{Index: n, A: Absent, B: b[n].String(), BLine: b[n].Line}
	}
	return nil
}

// effects extracts the effect substream.
func effects(evs []Event) []Event {
	out := make([]Event, 0, len(evs))
	for _, e := range evs {
		if e.isEffect() {
			out = append(out, e)
		}
	}
	return out
}

// Compare grades two full canonical streams: identical if everything
// matches, equivalent-modulo-noise if the effect substreams match, and
// divergent otherwise — with the first effect divergence as evidence.
func Compare(a, b []Event) (Tier, *Divergence) {
	if firstDivergence(a, b) == nil {
		return TierIdentical, nil
	}
	ea, eb := effects(a), effects(b)
	if d := firstDivergence(ea, eb); d != nil {
		return TierDivergent, d
	}
	return TierEquivalent, nil
}
