// Package tracediff is the trace-level RQ2 equivalence engine: it
// canonicalizes per-cell telemetry event streams and structurally
// compares an exploit run's trace against an injection run's trace, so
// the paper's central claim — that injected erroneous states are
// equivalent to exploit-induced ones — is checked at event granularity
// instead of only at verdict granularity.
//
// Canonicalization removes what legitimately varies between two
// equivalent runs: wall times are never in the event stream, sequence
// numbers are renumbered per compared stream, raw addresses are folded
// to symbolic roles via the version's memory layout, and run-identity
// tokens (the version banner, the words "exploit"/"injection") are
// masked. What remains is the run's structure: which steps executed,
// which state the audit attested, in which order.
package tracediff

import (
	"strconv"
	"strings"

	"repro/internal/hv"
	"repro/internal/layout"
	"repro/internal/mm"
	"repro/internal/telemetry"
)

// Event is one canonicalized trace event. String fields are fully
// normalized; comparing two Events for equality (ignoring Line) is the
// unit operation of the structural diff.
type Event struct {
	// Kind is the wire name of the event kind.
	Kind string
	// Dom is the acting domain (domain ids are deterministic).
	Dom uint16
	// Nr is the hypercall number for dispatcher events.
	Nr int32
	// Addr is the symbolic form of the address operand.
	Addr string
	// Val is the decimal value operand (lengths, levels, refs — all
	// run-independent enumerations).
	Val string
	// Label and Detail are the normalized text fields.
	Label, Detail string
	// StateAudit marks the monitor's affirmative erroneous-state
	// evidence (telemetry.EvidenceStateVal on the wire).
	StateAudit bool
	// Line is the 1-based JSONL source line for offline traces, 0 for
	// in-process events.
	Line int
}

// equal reports structural equality, ignoring provenance (Line).
func (e Event) equal(o Event) bool {
	return e.Kind == o.Kind && e.Dom == o.Dom && e.Nr == o.Nr &&
		e.Addr == o.Addr && e.Val == o.Val &&
		e.Label == o.Label && e.Detail == o.Detail &&
		e.StateAudit == o.StateAudit
}

// String renders the event compactly for divergence evidence.
func (e Event) String() string {
	b := make([]byte, 0, 64+len(e.Kind)+len(e.Addr)+len(e.Label)+len(e.Detail))
	b = append(b, e.Kind...)
	if e.Dom != 0 {
		b = strconv.AppendUint(append(b, " dom="...), uint64(e.Dom), 10)
	}
	if e.Nr != 0 {
		b = strconv.AppendInt(append(b, " nr="...), int64(e.Nr), 10)
	}
	if e.Addr != "0" {
		b = append(append(b, " addr="...), e.Addr...)
	}
	if e.Val != "0" {
		b = append(append(b, " val="...), e.Val...)
	}
	if e.Label != "" {
		b = strconv.AppendQuote(append(b, " label="...), e.Label)
	}
	if e.Detail != "" {
		b = strconv.AppendQuote(append(b, " detail="...), e.Detail)
	}
	if e.StateAudit {
		b = append(b, " [state-audit]"...)
	}
	return string(b)
}

// Effect kinds: the events that express what a run *did to the system*
// (scenario transcript and monitor audit), as opposed to how the
// mechanism got there (hypercall traffic, frame validation churn). The
// injector reaches the erroneous state through a different mechanism
// than the exploit by design — §IV's point is precisely that the same
// state is reached without the vulnerability — so mechanism events are
// comparison noise while effect events must match.
const (
	kindScenarioStep    = "scenario_step"
	kindVerdictEvidence = "verdict_evidence"
)

// isEffect reports whether the canonical event belongs to the effect
// stream; isEffectKind selects raw recorded events by the same kinds.
func (e Event) isEffect() bool {
	return e.Kind == kindScenarioStep || e.Kind == kindVerdictEvidence
}

// Canonicalizer folds one run's events into canonical form. It is bound
// to the run's version profile (for the memory-layout role lookup and
// the version-banner masking); build one per compared run.
type Canonicalizer struct {
	version       string
	roles         *layout.Map
	machineFrames uint64
	machineBytes  uint64
}

// Placeholders canonical text uses for masked run-identity tokens.
const (
	placeholderVer  = "«ver»"
	placeholderMode = "«mode»"
)

// NewCanonicalizer builds a canonicalizer for a run of the named
// version on a machine of machineFrames frames. An unknown version
// still canonicalizes (hex classification falls back to frame/phys/
// addr classes without symbolic roles), so offline traces from foreign
// builds remain diffable.
func NewCanonicalizer(version string, machineFrames uint64) *Canonicalizer {
	c := &Canonicalizer{
		version:       version,
		machineFrames: machineFrames,
		machineBytes:  machineFrames * mm.PageSize,
	}
	if v, err := hv.VersionByName(version); err == nil {
		// RoleLayout cannot fail for a known profile on a positive-size
		// machine; a failure just means no symbolic roles.
		if m, err := hv.RoleLayout(v, c.machineBytes); err == nil {
			c.roles = m
		}
	}
	return c
}

// Events canonicalizes a recorded in-process event slice, renumbering
// implicitly by order.
func (c *Canonicalizer) Events(evs []telemetry.Event) []Event {
	out := make([]Event, 0, len(evs))
	for i := range evs {
		e := &evs[i]
		out = append(out, c.canon(e.Kind.String(), e.Dom, e.Nr, e.Addr, e.Val, e.Label, e.Detail, 0))
	}
	return out
}

// Records canonicalizes JSONL trace records, skipping cell_end summary
// records (wall times and counters are not part of the event stream).
func (c *Canonicalizer) Records(recs []telemetry.TraceRecord) []Event {
	out := make([]Event, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.Kind == telemetry.CellEndKind {
			continue
		}
		out = append(out, c.canon(r.Kind, r.Dom, r.Nr, r.Addr, r.Val, r.Label, r.Detail, r.Line))
	}
	return out
}

func (c *Canonicalizer) canon(kind string, dom uint16, nr int32, addr, val uint64, label, detail string, line int) Event {
	return Event{
		Kind:       kind,
		Dom:        dom,
		Nr:         nr,
		Addr:       c.classify(addr),
		Val:        strconv.FormatUint(val, 10),
		Label:      c.normalizeText(label),
		Detail:     c.normalizeText(detail),
		StateAudit: kind == kindVerdictEvidence && val == telemetry.EvidenceStateVal,
		Line:       line,
	}
}

// classify folds a numeric operand to its symbolic class: a named
// layout segment for hypervisor virtual addresses, «frame» for machine
// frame numbers, «phys» for machine-physical byte addresses, «addr»
// for anything else. Zero stays zero — it means "no operand".
func (c *Canonicalizer) classify(v uint64) string {
	switch {
	case v == 0:
		return "0"
	case c.roles != nil:
		if name, ok := c.roles.Role(v); ok {
			return "«seg:" + name + "»"
		}
	}
	switch {
	case v < c.machineFrames:
		return "«frame»"
	case v < c.machineBytes:
		return "«phys»"
	default:
		return "«addr»"
	}
}

// normalizeText masks the run-identity tokens out of a label or detail
// string: the run's own version banner, the mode words, and every
// address-bearing hex literal (classified like numeric operands).
func (c *Canonicalizer) normalizeText(s string) string {
	if s == "" {
		return s
	}
	if c.version != "" {
		s = strings.ReplaceAll(s, c.version, placeholderVer)
	}
	s = strings.ReplaceAll(s, "injection", placeholderMode)
	s = strings.ReplaceAll(s, "exploit", placeholderMode)
	// Both hex forms need a decimal digit: "0x" starts with one, and a
	// bare run is masked only when it holds one.
	if strings.IndexFunc(s, isDigit) < 0 {
		return s
	}
	return c.maskHex(c.maskHexPrefixed(s))
}

// maskHexPrefixed classifies every 0x literal: "0x" followed by the
// longest run of hex digits, scanning left to right without overlap.
// A literal too long for a uint64 stays as it is.
func (c *Canonicalizer) maskHexPrefixed(s string) string {
	var b []byte
	last := 0
	for i := 0; i+2 < len(s); i++ {
		if s[i] != '0' || s[i+1] != 'x' || !isHex(s[i+2]) {
			continue
		}
		j := i + 3
		for j < len(s) && isHex(s[j]) {
			j++
		}
		if v, err := strconv.ParseUint(s[i+2:j], 16, 64); err == nil {
			b = append(append(b, s[last:i]...), c.classify(v)...)
			last = j
		}
		i = j - 1
	}
	if b == nil {
		return s
	}
	return string(append(b, s[last:]...))
}

// maskHex classifies every bare hex run: a whole ASCII word ([0-9A-Za-z_]
// between non-word bytes) of four or more hex digits with at least one
// decimal digit, so hex-alphabet words like "dead" survive. A run too
// long for a uint64 stays as it is.
func (c *Canonicalizer) maskHex(s string) string {
	var b []byte
	last := 0
	for i := 0; i < len(s); {
		if !isWord(s[i]) {
			i++
			continue
		}
		j, hex, digit := i, true, false
		for ; j < len(s) && isWord(s[j]); j++ {
			hex = hex && isHex(s[j])
			digit = digit || isDigit(rune(s[j]))
		}
		if hex && digit && j-i >= 4 {
			if v, err := strconv.ParseUint(s[i:j], 16, 64); err == nil {
				b = append(append(b, s[last:i]...), c.classify(v)...)
				last = j
			}
		}
		i = j
	}
	if b == nil {
		return s
	}
	return string(append(b, s[last:]...))
}

func isDigit(r rune) bool { return '0' <= r && r <= '9' }

func isHex(b byte) bool {
	return isDigit(rune(b)) || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
}

// isWord reports an ASCII word byte, the class regexp's \b tests.
func isWord(b byte) bool {
	return isHex(b) || 'g' <= b && b <= 'z' || 'G' <= b && b <= 'Z' || b == '_'
}
