// Package ledger is the campaign's persistent memory: a
// content-addressed, self-verifying store of run records that turns the
// one-shot repro binary into a regression instrument. Every campaign
// gets a deterministic run ID — the digest of everything that
// determines its canonical outcome (scenario registry digest, version
// set, chaos seed, mode flags, build version) — and an append-only
// record directory of per-cell entries journaled live as cells settle.
//
// The record is the claim the paper's tables make, made durable:
// verdict booleans, RQ2 equivalence tier and basis, coverage digest and
// edges, RQ3 detection latency, span makespan, failure class. Entries
// also keep each profiled cell's canonical effect stream, so
// equivalence is regradable offline — a resumed run merges reused and
// re-executed cells and regrades the whole matrix from the record,
// byte-identical to an uninterrupted run.
//
// Determinism discipline matches the rest of the tree: the canonical
// record is byte-identical at any `-workers` count, any chaos seed
// (given the same seed), and fork vs `-no-snapshot`. Wall time appears
// only in two explicitly segregated fields — the journal's per-entry
// wall_ns and run.json's created_unix_ns — and is zeroed out of the
// canonical settled form.
package ledger

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/span"
	"repro/internal/tracediff"
)

// FNV-1a 64-bit, the same short-digest scheme coverage and the scenario
// registry use; a ledger digest is 16 hex digits.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// appendHex16 appends h as 16 lowercase, zero-padded hex digits.
func appendHex16(b []byte, h uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[h>>shift&0xf])
	}
	return b
}

func digest16(s string) string {
	return string(appendHex16(nil, fnvString(fnvOffset, s)))
}

// appendLinesDigest appends the digest of lines joined by "\n", hashed
// as a stream rather than joined first.
func appendLinesDigest(b []byte, lines []string) []byte {
	h := fnvOffset
	for i, l := range lines {
		if i > 0 {
			h = fnvString(h, "\n")
		}
		h = fnvString(h, l)
	}
	return appendHex16(b, h)
}

// Key identifies one recorded cell: the (scenario, version, mode, seed)
// coordinate resumable campaigns are keyed by. Seed is the run's chaos
// seed — constant across a record, but part of the key so entries from
// different fault loads never alias.
type Key struct {
	Scenario string
	Version  string
	Mode     string
	Seed     int64
}

// String renders the key in cell-identity order (version/scenario/mode,
// matching the runner's cell IDs) with the seed qualifier.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s@seed=%d", k.Version, k.Scenario, k.Mode, k.Seed)
}

// Cell is the runner's "version/use-case/mode" identity for the key.
func (k Key) Cell() string {
	return k.Version + "/" + k.Scenario + "/" + k.Mode
}

// VerdictRecord persists the monitor's Table III booleans plus the
// scenario's self-reported failure, everything the matrix rendering
// needs from a successful cell.
type VerdictRecord struct {
	ErroneousState    bool `json:"erroneous_state"`
	SecurityViolation bool `json:"security_violation"`
	Handled           bool `json:"handled"`
	// ScriptError is the scenario script's terminating error text, empty
	// when the script completed ("PoC failed" rows keep their note).
	ScriptError string `json:"script_error,omitempty"`
}

// CoverageRecord persists a cell's settled coverage map: the digest and
// edge count the canonical record pins, plus the full edge list so a
// merged campaign coverage report is reconstructable from the record.
type CoverageRecord struct {
	Digest   string          `json:"digest"`
	Edges    int             `json:"edges"`
	EdgeList []coverage.Edge `json:"edge_list,omitempty"`
}

// Entry is one settled cell's persisted outcome. Exactly one of
// Verdict (success) and Error (failure) is set.
type Entry struct {
	Scenario string `json:"scenario"`
	Version  string `json:"version"`
	Mode     string `json:"mode"`
	Seed     int64  `json:"seed,omitempty"`
	// SpecDigest pins the declarative identity of the scenario spec the
	// cell ran under; a resume invalidates entries whose spec changed.
	SpecDigest string `json:"spec_digest,omitempty"`
	// Profiled reports the cell ran under a telemetry registry, i.e. its
	// Effects stream attests the run (an empty stream from an unprofiled
	// cell is not evidence).
	Profiled bool           `json:"profiled,omitempty"`
	Verdict  *VerdictRecord `json:"verdict,omitempty"`
	// Equivalence is the cell's RQ2 verdict, attached to injection
	// entries once the run's matrix is graded.
	Equivalence *tracediff.CellVerdict `json:"equivalence,omitempty"`
	Coverage    *CoverageRecord        `json:"coverage,omitempty"`
	// Latency is the RQ3 detection latency (virtual time only).
	Latency *span.Latency `json:"latency,omitempty"`
	// SpanV is the cell's span-tree makespan in virtual time (the root
	// span's duration), 0 for abandoned cells that kept no tree.
	SpanV uint64 `json:"span_v,omitempty"`
	// Effects and StateAudit are the persisted canonical streams
	// (tracediff.CanonicalStreams) equivalence is regraded from.
	Effects    []string `json:"effects,omitempty"`
	StateAudit []string `json:"state_audit,omitempty"`
	// Error is the classified failure record for a failed cell.
	Error *campaign.CellError `json:"error,omitempty"`
	// WallNS is the cell's observed wall time — the explicitly
	// segregated wall field, kept in the journal for profiling and
	// zeroed in the canonical settled record.
	WallNS int64 `json:"wall_ns,omitempty"`
}

// Key returns the entry's ledger key.
func (e *Entry) Key() Key {
	return Key{Scenario: e.Scenario, Version: e.Version, Mode: e.Mode, Seed: e.Seed}
}

// canceled reports the entry records interrupted (not failed) work: a
// canceled cell is absent work a resume re-executes, and it never
// enters the canonical record.
func (e *Entry) canceled() bool {
	return e.Error != nil && e.Error.Class == campaign.FailCanceled
}

// appendCanonical appends the entry's semantic content as one line of
// the record's canonical text, without the newline. Streams and
// coverage edge lists are folded to length+digest so the canonical form
// stays readable; the digests still pin every byte of them.
func (e *Entry) appendCanonical(b []byte) []byte {
	b = append(b, "cell "...)
	b = append(append(append(append(append(b, e.Version...), '/'), e.Scenario...), '/'), e.Mode...)
	b = strconv.AppendInt(append(b, " seed="...), e.Seed, 10)
	b = append(append(b, " spec="...), e.SpecDigest...)
	if v := e.Verdict; v != nil {
		b = append(b, " verdict="...)
		for _, on := range [...]bool{v.ErroneousState, v.SecurityViolation, v.Handled} {
			if on {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
		if v.ScriptError != "" {
			b = strconv.AppendQuote(append(b, " script-err="...), v.ScriptError)
		}
	}
	if cv := e.Equivalence; cv != nil {
		b = append(append(append(append(b, " equiv="...), cv.Tier...), '/'), cv.Basis...)
		if cv.RefVersion != "" {
			b = append(append(b, '@'), cv.RefVersion...)
		}
		b = strconv.AppendInt(append(b, ':'), int64(cv.BaseEvents), 10)
		b = strconv.AppendInt(append(b, '/'), int64(cv.InjectionEvents), 10)
	}
	if e.Coverage != nil {
		b = append(append(b, " cov="...), e.Coverage.Digest...)
		b = strconv.AppendInt(append(b, 'x'), int64(e.Coverage.Edges), 10)
	}
	if e.Latency != nil && e.Latency.Found {
		b = strconv.AppendInt(append(b, " latency="...), e.Latency.Events, 10)
	}
	if e.SpanV != 0 {
		b = strconv.AppendUint(append(b, " span_v="...), e.SpanV, 10)
	}
	if e.Profiled {
		b = strconv.AppendInt(append(b, " effects="...), int64(len(e.Effects)), 10)
		b = appendLinesDigest(append(b, ':'), e.Effects)
		b = strconv.AppendInt(append(b, " audit="...), int64(len(e.StateAudit)), 10)
		b = appendLinesDigest(append(b, ':'), e.StateAudit)
	}
	if e.Error != nil {
		b = append(append(b, " err="...), e.Error.Class...)
		b = strconv.AppendQuote(append(b, ':'), e.Error.Message)
	}
	return b
}

// Config is a run's identity: everything that determines the campaign's
// canonical record. Worker count and the snapshot/fork flag are
// deliberately absent — the engine guarantees those do not change the
// settled outcome, so the same experiment at `-workers 8` and
// `-no-snapshot -workers 1` is the same run.
type Config struct {
	// RegistryDigest pins the declarative scenario corpus.
	RegistryDigest string `json:"registry_digest"`
	// Versions is the hypervisor version set, in campaign order.
	Versions []string `json:"versions"`
	// Seed is the chaos fault seed (0 = chaos off).
	Seed int64 `json:"seed"`
	// ContinueOnError records the fault-tolerance mode: it changes which
	// cells produce entries after a failure, so it is identity.
	ContinueOnError bool `json:"continue_on_error"`
	// BuildVersion pins the engine: scenario Run functions are code, and
	// code is versioned by the build, not by the declarative digest.
	BuildVersion string `json:"build_version"`
}

// CurrentConfig builds the config for a campaign of this process: the
// live scenario registry, the live version set, and the build version.
func CurrentConfig(seed int64, continueOnError bool) Config {
	vs := hv.Versions()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return Config{
		RegistryDigest:  exploits.RegistryDigest(),
		Versions:        names,
		Seed:            seed,
		ContinueOnError: continueOnError,
		BuildVersion:    buildinfo.Version,
	}
}

// canonical renders the config identity as one line.
func (c Config) canonical() string {
	return fmt.Sprintf("registry=%s versions=%s seed=%d continue-on-error=%t build=%s",
		c.RegistryDigest, strings.Join(c.Versions, ","), c.Seed, c.ContinueOnError, c.BuildVersion)
}

// Canonical renders the config identity line for display (run listings
// and diff headers).
func (c Config) Canonical() string { return c.canonical() }

// RunID is the run's content-addressed identity: the digest of the
// canonical config line. Same experiment, same ID — at any worker
// count, and fork or fresh-boot alike.
func (c Config) RunID() string { return digest16(c.canonical()) }

// Compatible reports whether a prior run's record can seed a delta
// rerun of this config. Everything must match except the registry
// digest: corpus growth is exactly what delta reruns patch over (stale
// entries are invalidated per spec by their SpecDigest instead).
func (c Config) Compatible(o Config) bool {
	return c.Seed == o.Seed &&
		c.ContinueOnError == o.ContinueOnError &&
		c.BuildVersion == o.BuildVersion &&
		strings.Join(c.Versions, ",") == strings.Join(o.Versions, ",")
}

// Run is a run's metadata (the record directory's run.json). It is the
// only place besides Entry.WallNS where wall time lives.
type Run struct {
	RunID  string `json:"run_id"`
	Config Config `json:"config"`
	// CreatedUnixNS is wall-clock provenance (first creation of the
	// record directory), segregated here and never part of any digest.
	CreatedUnixNS int64 `json:"created_unix_ns"`
	// Cells is the expected matrix size; Completed counts settled,
	// non-canceled entries.
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	// Digest is the canonical record digest, filled when the run closes.
	Digest string `json:"digest,omitempty"`
}

// Record is the canonical settled form of a run: config, dispatch-order
// entries with wall fields zeroed and canceled cells dropped, and the
// self-verifying digest over the canonical text.
type Record struct {
	RunID     string   `json:"run_id"`
	Config    Config   `json:"config"`
	Cells     int      `json:"cells"`
	Completed int      `json:"completed"`
	Digest    string   `json:"digest"`
	Entries   []*Entry `json:"entries"`
}

// modeRank orders exploit before injection, the dispatch order within a
// (version, scenario) pair.
func modeRank(m string) int {
	switch m {
	case string(campaign.ModeExploit):
		return 0
	case string(campaign.ModeInjection):
		return 1
	}
	return 2
}

// orderIndex ranks entries into dispatch order: version-major (the
// record's version order), registry-spec order, exploit before
// injection. Names outside the live registry or version set — a record
// from a larger, later corpus — rank after all known ones,
// lexicographically, so sorting stays total and deterministic.
type orderIndex struct {
	version map[string]int
	spec    map[string]int
}

func newOrderIndex(versions []string) *orderIndex {
	ix := &orderIndex{version: make(map[string]int, len(versions)), spec: make(map[string]int)}
	for i, v := range versions {
		ix.version[v] = i
	}
	for i, s := range exploits.Specs() {
		ix.spec[s.Name] = i
	}
	return ix
}

// rank returns the position of name in idx, with unknown names pushed
// past every known one.
func rank(idx map[string]int, name string) int {
	if i, ok := idx[name]; ok {
		return i
	}
	return len(idx)
}

func (ix *orderIndex) less(a, b *Entry) bool {
	if va, vb := rank(ix.version, a.Version), rank(ix.version, b.Version); va != vb {
		return va < vb
	}
	if a.Version != b.Version {
		return a.Version < b.Version
	}
	if sa, sb := rank(ix.spec, a.Scenario), rank(ix.spec, b.Scenario); sa != sb {
		return sa < sb
	}
	if a.Scenario != b.Scenario {
		return a.Scenario < b.Scenario
	}
	if ma, mb := modeRank(a.Mode), modeRank(b.Mode); ma != mb {
		return ma < mb
	}
	return a.Mode < b.Mode
}

// Settle builds the canonical record from a run's deduped entries:
// dispatch order, wall fields zeroed, canceled cells dropped (they are
// interrupted work a resume re-executes, not results). Entries are
// copied; the caller's slice is untouched.
func Settle(run *Run, entries []*Entry) *Record {
	ix := newOrderIndex(run.Config.Versions)
	keep := make([]*Entry, 0, len(entries))
	for _, e := range entries {
		if e.canceled() {
			continue
		}
		c := *e
		c.WallNS = 0
		keep = append(keep, &c)
	}
	sort.SliceStable(keep, func(i, j int) bool { return ix.less(keep[i], keep[j]) })
	rec := &Record{RunID: run.RunID, Config: run.Config, Cells: run.Cells, Completed: len(keep), Entries: keep}
	rec.Digest = rec.computeDigest()
	return rec
}

// Canonical renders the record's canonical text: the config header and
// one line per entry in dispatch order. Nothing here depends on wall
// time, completion order, worker count, or the fork path.
func (r *Record) Canonical() string {
	var b []byte
	r.canonicalLines(func(line []byte) { b = append(b, line...) })
	return string(b)
}

// canonicalLines hands the canonical text to emit line by line, each
// line with its newline. The slice is reused between calls.
func (r *Record) canonicalLines(emit func(line []byte)) {
	b := append([]byte("run "), r.RunID...)
	b = append(append(b, "\nconfig "...), r.Config.canonical()...)
	b = strconv.AppendInt(append(b, "\ncells "...), int64(r.Cells), 10)
	b = strconv.AppendInt(append(b, " completed "...), int64(r.Completed), 10)
	emit(append(b, '\n'))
	for _, e := range r.Entries {
		b = e.appendCanonical(b[:0])
		emit(append(b, '\n'))
	}
}

// computeDigest hashes the canonical text as it is rendered, never
// holding it whole.
func (r *Record) computeDigest() string {
	h := fnvOffset
	r.canonicalLines(func(line []byte) { h = fnvBytes(h, line) })
	return string(appendHex16(nil, h))
}

// Verify recomputes the record's identity from its contents: the run ID
// from the config and the digest from the canonical text, catching
// hand-edited or truncated records and baselines.
func (r *Record) Verify() error {
	if got := r.Config.RunID(); got != r.RunID {
		return fmt.Errorf("ledger: run ID %s does not match config (recomputed %s)", r.RunID, got)
	}
	if got := r.computeDigest(); got != r.Digest {
		return fmt.Errorf("ledger: record digest %s does not match contents (recomputed %s)", r.Digest, got)
	}
	return nil
}

// EntryByKey returns the record's entry for a key, nil when absent.
func (r *Record) EntryByKey(k Key) *Entry {
	for _, e := range r.Entries {
		if e.Key() == k {
			return e
		}
	}
	return nil
}

// Failed counts the record's failed cells.
func (r *Record) Failed() int {
	n := 0
	for _, e := range r.Entries {
		if e.Error != nil {
			n++
		}
	}
	return n
}

// Complete reports whether every expected cell settled.
func (r *Record) Complete() bool { return r.Completed == r.Cells }

// ErrIncompatible marks a resume attempted against a record from a
// different experiment (seed, flags, versions or build differ).
var ErrIncompatible = errors.New("ledger: prior run record is not compatible with this configuration")
