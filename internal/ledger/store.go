package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The on-disk layout. A store directory holds one subdirectory per run
// ID:
//
//	<dir>/<run-id>/run.json     — Run metadata (wall-time provenance lives here)
//	<dir>/<run-id>/cells.jsonl  — append-only journal, one Entry per line,
//	                              completion order
//	<dir>/<run-id>/record.json  — canonical settled Record, written on close
//
// Every journal line is handed to the kernel with one unbuffered write
// as its cell settles, so the journal survives a killed process (panic,
// SIGINT, SIGKILL) with every settled cell. It is not fsynced, so an OS
// crash or power loss can lose lines the kernel had not yet flushed; a
// truncated final line is skipped on load either way.
//
// The journal is the source of truth: Load rebuilds the record from it
// (last entry per key wins, so a resumed run's re-executions supersede
// interrupted ones) and record.json is a derived, self-verifying
// convenience — the byte-identity artifact, the committed-baseline
// format, and the diff input.
//
// The byte contract: a journal line is json.Marshal of its Entry, and
// record.json is json.MarshalIndent(record, "", "  ") plus a newline.
// Both are written and read by the schema-specific codec in codec.go,
// which reads back exactly what json.Unmarshal would. FuzzEntryEncode,
// FuzzIndentJSON, FuzzRecordDecode and FuzzReadJournal hold the codec
// to encoding/json, and the committed LEDGER_baseline.json to those
// bytes. run.json is
// one small file per run and stays on encoding/json.

const (
	runFile     = "run.json"
	journalFile = "cells.jsonl"
	recordFile  = "record.json"
)

// Store is a directory of campaign run records.
type Store struct {
	dir string
}

// Open opens (creating if needed) a run store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// RunDir returns the record directory for a run ID.
func (s *Store) RunDir(id string) string { return filepath.Join(s.dir, id) }

// Runs lists the store's run metadata, newest first (by creation time,
// run ID as the tiebreak). Directories without a readable run.json are
// skipped — a run is only visible once its metadata hit the disk.
func (s *Store) Runs() ([]*Run, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: list runs: %w", err)
	}
	var runs []*Run
	for _, de := range ents {
		if !de.IsDir() {
			continue
		}
		r, err := readRunFile(filepath.Join(s.dir, de.Name(), runFile))
		if err != nil {
			continue
		}
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].CreatedUnixNS != runs[j].CreatedUnixNS {
			return runs[i].CreatedUnixNS > runs[j].CreatedUnixNS
		}
		return runs[i].RunID < runs[j].RunID
	})
	return runs, nil
}

// Load rebuilds a run's canonical record from its journal. The journal
// may be live (a running or interrupted campaign): entries settle
// last-wins per key, canceled cells drop out, and the result is the
// same canonical form a clean close writes.
func (s *Store) Load(id string) (*Record, error) {
	dir := s.RunDir(id)
	run, err := readRunFile(filepath.Join(dir, runFile))
	if err != nil {
		return nil, err
	}
	entries, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		return nil, err
	}
	return Settle(run, entries), nil
}

// LatestMatching returns the newest run record compatible with cfg
// (same seed, flags, versions and build — the registry digest may
// drift), or nil when the store holds none.
func (s *Store) LatestMatching(cfg Config) (*Record, error) {
	runs, err := s.Runs()
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		if cfg.Compatible(r.Config) {
			return s.Load(r.RunID)
		}
	}
	return nil, nil
}

// readRunFile decodes one run.json.
func readRunFile(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read run metadata: %w", err)
	}
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("ledger: parse %s: %w", path, err)
	}
	return &r, nil
}

// readJournal decodes a cells.jsonl journal file; a missing journal
// holds no entries.
func readJournal(path string) ([]*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ledger: open journal: %w", err)
	}
	defer f.Close()
	return decodeJournal(f)
}

// decodeJournal decodes journal lines, last entry per key wins. A line
// that does not decode (a truncated final line from a crash
// mid-append, or garbage) is skipped, not fatal: the cell it carried
// simply reruns on resume.
func decodeJournal(r io.Reader) ([]*Entry, error) {
	byKey := make(map[Key]int)
	var entries []*Entry
	var d decoder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e := new(Entry)
		if err := d.decodeEntry(string(line), e); err != nil {
			continue
		}
		if i, ok := byKey[e.Key()]; ok {
			entries[i] = e
			continue
		}
		byKey[e.Key()] = len(entries)
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: scan journal: %w", err)
	}
	return entries, nil
}

// marshalRecord renders a record as the settled record.json bytes: the
// canonical interchange form byte-identity is asserted over, equal to
// json.MarshalIndent(rec, "", "  ") plus a newline.
func marshalRecord(rec *Record) []byte {
	return append(appendRecordJSON(make([]byte, 0, 1024+3072*len(rec.Entries)), rec), '\n')
}

// WriteRecordFile writes a record's settled JSON form, the format
// `make ledger-baseline` commits and `tracecheck runs diff` consumes.
func WriteRecordFile(path string, rec *Record) error {
	if err := os.WriteFile(path, marshalRecord(rec), 0o644); err != nil {
		return fmt.Errorf("ledger: write record: %w", err)
	}
	return nil
}

// LoadRecordFile reads and verifies a settled record file (a run
// directory's record.json or a committed baseline).
func LoadRecordFile(path string) (*Record, error) {
	data, err := readFileString(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read record: %w", err)
	}
	rec, err := decodeRecord(data)
	if err != nil {
		return nil, fmt.Errorf("ledger: parse %s: %w", path, err)
	}
	if err := rec.Verify(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// readFileString reads a file straight into a string, so the decoded
// record's strings can share its one copy of the file.
func readFileString(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var sb strings.Builder
	if fi, err := f.Stat(); err == nil {
		sb.Grow(int(fi.Size()))
	}
	_, err = io.Copy(&sb, f)
	return sb.String(), err
}
