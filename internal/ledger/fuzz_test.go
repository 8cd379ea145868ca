package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
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

// FuzzEntryEncode checks the codec's journal lines against
// json.Marshal of fuzzed entries.
func FuzzEntryEncode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.parts, s.text, s.n, s.v)
	}
	f.Fuzz(func(t *testing.T, parts uint8, text string, n int64, v uint64) {
		e := fuzzRecord(parts, text, n, v).Entries[0]
		want, err := json.Marshal(e)
		if err != nil {
			t.Skip(err)
		}
		if got := appendEntryJSON(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("journal line\n got: %s\nwant: %s", got, want)
		}
	})
}

// FuzzIndentJSON checks the codec's record.json bytes against
// json.MarshalIndent(rec, "", "  ") plus a newline on fuzzed records.
func FuzzIndentJSON(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.parts, s.text, s.n, s.v)
	}
	f.Fuzz(func(t *testing.T, parts uint8, text string, n int64, v uint64) {
		rec := fuzzRecord(parts, text, n, v)
		want, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Skip(err)
		}
		if got := marshalRecord(rec); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("record.json\n got: %s\nwant: %s", got, want)
		}
	})
}

// checkDecode decodes data as a record and as a journal line with the
// codec and with json.Unmarshal. Whatever the codec accepts must decode
// to the same value; a journal line must also be rejected exactly when
// json.Unmarshal rejects it, since the journal reader skips such lines.
func checkDecode(t *testing.T, data []byte) (recordOK bool) {
	t.Helper()
	got, err := decodeRecord(string(data))
	if err == nil {
		var want Record
		if jerr := json.Unmarshal(data, &want); jerr != nil {
			t.Fatalf("record: codec accepted what json.Unmarshal rejects (%v): %q", jerr, data)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("record %q\n got: %+v\nwant: %+v", data, *got, want)
		}
	}
	var d decoder
	var e, want Entry
	eerr := d.decodeEntry(string(data), &e)
	jerr := json.Unmarshal(data, &want)
	if (eerr == nil) != (jerr == nil) {
		t.Fatalf("journal line %q: codec error %v, json.Unmarshal error %v", data, eerr, jerr)
	}
	if eerr == nil && !reflect.DeepEqual(e, want) {
		t.Fatalf("journal line %q\n got: %+v\nwant: %+v", data, e, want)
	}
	return err == nil
}

// FuzzRecordDecode checks the codec's decoder against json.Unmarshal,
// on arbitrary bytes and on the encoder's output for a fuzzed record,
// which it must accept.
func FuzzRecordDecode(f *testing.F) {
	for i, data := range decodeSeeds() {
		s := fuzzSeeds[i%len(fuzzSeeds)]
		f.Add([]byte(data), s.parts, s.text, s.n, s.v)
	}
	f.Fuzz(func(t *testing.T, data []byte, parts uint8, text string, n int64, v uint64) {
		checkDecode(t, data)
		rec := fuzzRecord(parts, text, n, v)
		if !checkDecode(t, marshalRecord(rec)) {
			t.Fatalf("codec rejected its own record.json: %s", marshalRecord(rec))
		}
		checkDecode(t, appendEntryJSON(nil, rec.Entries[0]))
	})
}

// decodeSeeds are inputs where json.Unmarshal's rules are easy to get
// wrong: folded and escaped keys, repeated keys merging into pointers
// and slices, nulls, integer edge cases, string escapes and invalid
// UTF-8, nesting at the depth limit, and malformed JSON.
func decodeSeeds() []string {
	nest := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"mode":"m"}`
	}
	return []string{
		``, ` `, `null`, ` null `, `{}`, `[]`, `"x"`, `1`, `true`,
		`{"scenario":"a"} x`, `{"scenario":"a"}` + "\r\n", "\ufeff{}", `{"scenario":"a",}`, `{"scenario" "a"}`,
		`{"SCENARIO":"a","Mode":"b","\u017fpec_digest":"c","\u0073eed":5,"sc\u00e9nario":"x"}`,
		`{"error":{"STAC\u212a":"x","cla\u017f\u017f":"c","Message":"m","ce\u0130l":"?"}}`,
		`{"wall_ns":1,"WALL_NS":2,"scenario":"a","scenario":null}`,
		`{"verdict":{"handled":true},"verdict":{"erroneous_state":true}}`,
		`{"verdict":{"handled":true},"verdict":null,"verdict":{}}`,
		`{"effects":["p","q","r"],"effects":["s"],"effects":[null,null,null,null]}`,
		`{"effects":[],"state_audit":null,"verdict":[]}`,
		`{"coverage":{"edge_list":[{"name":"a","count":1},null],"edge_list":[null,{"count":2},null]}}`,
		`{"equivalence":{"divergence":{"index":1,"a_line":2},"divergence":{"b":"x"}},"latency":{"found":true,"events":-3}}`,
		`{"error":{"class":"panic","message":"m","stack":"s"},"error":{"cell":"c"}}`,
		`{"seed":-0}`, `{"seed":1.0}`, `{"seed":1e2}`, `{"seed":9223372036854775807}`, `{"seed":9223372036854775808}`,
		`{"span_v":-1}`, `{"span_v":-0}`, `{"span_v":18446744073709551615}`, `{"span_v":18446744073709551616}`,
		`{"seed":01}`, `{"seed":-}`, `{"seed":"1"}`, `{"seed":1.}`, `{"seed":1e}`, `{"seed":-1E+2}`,
		`{"profiled":null}`, `{"profiled":1}`, `{"profiled":tru}`, `{"profiled":falsey}`,
		`{"scenario":"\ud83d\ude00"}`, `{"scenario":"\ud83d"}`, `{"scenario":"\ud83d\u0041"}`,
		`{"scenario":"\udc00\ud83d\ude00\ud83d"}`, `{"scenario":"\ud83d\u00"}`, "{\"scenario\":\"\xff\xfe\xed\xa0\x80\"}",
		`{"scenario":"\u00"}`, "{\"scenario\":\"\x01\"}", `{"scenario":"\'"}`, `{"scenario":"a\/b\"\\\b\f\n\r\t<>&"}`,
		`{"scenario":"unterminated}`, `{"scenario":"a`,
		`{"x":{"y":[1,{"z":null}],"w":"\u0041"},"scenario":"a","y":-1.5e-3}`, `{"x":nul}`, `{"x":[1,]}`,
		nest(9999), nest(10000),
		`{"entries":[null]}`, `{"entries":[{"scenario":"a"}],"entries":[{"mode":"b"},{}]}`,
		`{"config":{"versions":["a","b"]},"config":{"versions":[null]}}`, `{"config":null,"cells":3,"cells":null}`,
		`{"run_id":"r","config":{"registry_digest":"g","versions":["4.6"],"seed":1,"continue_on_error":true,"build_version":"b"},"cells":1,"completed":1,"digest":"d","entries":[]}`,
	}
}

// oracleDecodeJournal is the json.Unmarshal journal reader the codec
// replaced, kept as the fuzz oracle.
func oracleDecodeJournal(r io.Reader) ([]*Entry, error) {
	byKey := make(map[Key]int)
	var entries []*Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		if i, ok := byKey[e.Key()]; ok {
			entries[i] = &e
			continue
		}
		byKey[e.Key()] = len(entries)
		entries = append(entries, &e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: scan journal: %w", err)
	}
	return entries, nil
}

// FuzzReadJournal checks the journal reader against the json.Unmarshal
// reader it replaced, on journals with truncated tails, garbage lines,
// repeated keys and superseding entries.
func FuzzReadJournal(f *testing.F) {
	var journal []byte
	for _, s := range fuzzSeeds {
		journal = append(appendEntryJSON(journal, fuzzRecord(s.parts, s.text, s.n, s.v).Entries[0]), '\n')
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-7])
	f.Add([]byte("null\n{}\r\n{\"Scenario\":\"a\",\"mode\":\"x\",\"mode\":null}\ngarbage\n" +
		`{"scenario":"a","effects":["p","q","r"],"effects":["s"],"effects":[null,null,null,null]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := decodeJournal(bytes.NewReader(data))
		want, werr := oracleDecodeJournal(bytes.NewReader(data))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("journal %q: error %v, oracle error %v", data, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("journal %q\n got: %+v\nwant: %+v", data, got, want)
		}
	})
}
