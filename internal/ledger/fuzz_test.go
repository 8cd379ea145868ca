package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/span"
	"repro/internal/tracediff"
)

// oracleDigest16 and oracleCanonicalLine are the fmt renderings the
// appenders replaced, kept as the fuzz oracles.
func oracleDigest16(s string) string {
	return fmt.Sprintf("%016x", fnvString(fnvOffset, s))
}

func oracleCanonicalLine(e *Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell %s/%s/%s seed=%d spec=%s", e.Version, e.Scenario, e.Mode, e.Seed, e.SpecDigest)
	if e.Verdict != nil {
		mark := func(v bool) byte {
			if v {
				return '1'
			}
			return '0'
		}
		fmt.Fprintf(&b, " verdict=%c%c%c", mark(e.Verdict.ErroneousState), mark(e.Verdict.SecurityViolation), mark(e.Verdict.Handled))
		if e.Verdict.ScriptError != "" {
			fmt.Fprintf(&b, " script-err=%q", e.Verdict.ScriptError)
		}
	}
	if e.Equivalence != nil {
		cv := e.Equivalence
		fmt.Fprintf(&b, " equiv=%s/%s", cv.Tier, cv.Basis)
		if cv.RefVersion != "" {
			fmt.Fprintf(&b, "@%s", cv.RefVersion)
		}
		fmt.Fprintf(&b, ":%d/%d", cv.BaseEvents, cv.InjectionEvents)
	}
	if e.Coverage != nil {
		fmt.Fprintf(&b, " cov=%sx%d", e.Coverage.Digest, e.Coverage.Edges)
	}
	if e.Latency != nil && e.Latency.Found {
		fmt.Fprintf(&b, " latency=%d", e.Latency.Events)
	}
	if e.SpanV != 0 {
		fmt.Fprintf(&b, " span_v=%d", e.SpanV)
	}
	if e.Profiled {
		fmt.Fprintf(&b, " effects=%d:%s audit=%d:%s",
			len(e.Effects), oracleDigest16(strings.Join(e.Effects, "\n")),
			len(e.StateAudit), oracleDigest16(strings.Join(e.StateAudit, "\n")))
	}
	if e.Error != nil {
		fmt.Fprintf(&b, " err=%s:%q", e.Error.Class, e.Error.Message)
	}
	return b.String()
}

// fuzzRecord builds a one-entry record from fuzzed fields. Bits of parts
// choose which optional parts the entry carries; text is split on '|'
// into the free-text fields, and its ';'-separated pieces become the
// effect lines and version list (so empty and one-element lists occur).
func fuzzRecord(parts uint8, text string, n int64, v uint64) *Record {
	f := strings.Split(text, "|")
	field := func(i int) string {
		if i < len(f) {
			return f[i]
		}
		return ""
	}
	lines := strings.Split(field(1), ";")
	e := &Entry{
		Scenario: field(0), Version: field(2), Mode: field(3),
		Seed: n, SpecDigest: field(4), SpanV: v,
		Profiled: parts&1 != 0,
	}
	if parts&1 != 0 {
		e.Effects, e.StateAudit = lines, lines[:len(lines)/2]
	}
	if parts&2 != 0 {
		e.Verdict = &VerdictRecord{ErroneousState: n&1 != 0, SecurityViolation: n&2 != 0, Handled: n&4 != 0, ScriptError: field(5)}
	}
	if parts&4 != 0 {
		e.Equivalence = &tracediff.CellVerdict{
			UseCase: field(0), Version: field(2), Tier: tracediff.Tier(field(6)), Basis: tracediff.Basis(field(7)),
			RefVersion: field(8), BaseEvents: int(n), InjectionEvents: int(v),
		}
		if parts&32 != 0 {
			e.Equivalence.Divergence = &tracediff.Divergence{Index: int(n), A: field(9), B: tracediff.Absent}
		}
	}
	if parts&8 != 0 {
		e.Coverage = &CoverageRecord{Digest: field(9), Edges: int(n)}
		for _, l := range lines {
			e.Coverage.EdgeList = append(e.Coverage.EdgeList, coverage.Edge{Family: coverage.FamPageType, Name: l, Count: v})
		}
	}
	if parts&16 != 0 {
		e.Latency = &span.Latency{Found: v&1 != 0, TriggerV: v, EvidenceV: v / 2, Events: n}
	}
	if parts&64 != 0 {
		e.Error = &campaign.CellError{Cell: field(0), Class: campaign.FailureClass(field(10)), Message: field(11), Stack: field(12)}
	}
	versions := []string{}
	if parts&128 != 0 {
		versions = lines
	}
	return &Record{
		RunID:  field(13),
		Config: Config{RegistryDigest: field(4), Versions: versions, Seed: n, ContinueOnError: parts&64 != 0, BuildVersion: field(14)},
		Cells:  int(v), Completed: 1, Entries: []*Entry{e},
	}
}

var fuzzSeeds = []struct {
	parts uint8
	text  string
	n     int64
	v     uint64
}{
	{0, "", 0, 0},
	{255, "XSA-148-priv|line one;line \"two\";«x» é|4.6|injection|c8f8b289560f9515|PoC failed: <tab>\t&|equivalent|exploit|4.8|0123456789abcdef|panic|boom\n|stack\\|run|0.9.0", -3, 1<<63 + 5},
	{0x5a, "a|;|b|c||||||||||||", 1 << 40, 42},
}

// FuzzEntryCanonical checks the canonical-line appender and the
// streamed record digest against the fmt and strings.Join forms they
// replaced.
func FuzzEntryCanonical(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.parts, s.text, s.n, s.v)
	}
	f.Fuzz(func(t *testing.T, parts uint8, text string, n int64, v uint64) {
		rec := fuzzRecord(parts, text, n, v)
		e := rec.Entries[0]
		if got, want := string(e.appendCanonical(nil)), oracleCanonicalLine(e); got != want {
			t.Fatalf("canonical line\n got: %q\nwant: %q", got, want)
		}
		want := oracleDigest16(fmt.Sprintf("run %s\nconfig %s\ncells %d completed %d\n%s\n",
			rec.RunID, rec.Config.canonical(), rec.Cells, rec.Completed, oracleCanonicalLine(e)))
		if got := rec.computeDigest(); got != want {
			t.Fatalf("record digest %s, want %s", got, want)
		}
	})
}

// FuzzIndentJSON checks the non-validating indenter against json.Indent
// over json.Marshal output of fuzzed records.
func FuzzIndentJSON(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.parts, s.text, s.n, s.v)
	}
	f.Fuzz(func(t *testing.T, parts uint8, text string, n int64, v uint64) {
		data, err := json.Marshal(fuzzRecord(parts, text, n, v))
		if err != nil {
			t.Skip(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, data, "", "  "); err != nil {
			t.Fatalf("json.Indent rejected json.Marshal output: %v", err)
		}
		if got := indentJSON(nil, data); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indentJSON(%s)\n got: %s\nwant: %s", data, got, want.Bytes())
		}
	})
}
