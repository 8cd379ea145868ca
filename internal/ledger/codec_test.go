package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coverage"
)

func loadBaseline(t *testing.T) (*Record, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "LEDGER_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := LoadRecordFile(filepath.Join("..", "..", "LEDGER_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	return rec, data
}

// TestBaselineRecordCodec pins the codec to encoding/json on the
// committed 102-cell record: decoding gives json.Unmarshal's value and
// re-encoding gives the committed bytes back.
func TestBaselineRecordCodec(t *testing.T) {
	rec, data := loadBaseline(t)
	var want Record
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rec, want) {
		t.Fatal("decoded baseline differs from json.Unmarshal's")
	}
	if got := marshalRecord(rec); !bytes.Equal(got, data) {
		t.Fatal("re-encoded baseline differs from LEDGER_baseline.json")
	}
}

// TestJournalLinesMatchMarshal journals every baseline entry, with wall
// times set as a live run's are, and checks each cells.jsonl line is
// json.Marshal of its entry and that the journal reads back as the
// json.Unmarshal reader read it.
func TestJournalLinesMatchMarshal(t *testing.T) {
	rec, _ := loadBaseline(t)
	entries := make([]*Entry, len(rec.Entries))
	for i, e := range rec.Entries {
		c := *e
		c.WallNS = int64(1000*i + 7)
		entries[i] = &c
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.NewWriter(rec.Config, rec.Cells)
	if err != nil {
		t.Fatal(err)
	}
	w.Import(entries)
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(w.Dir(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(journal))
	sc.Buffer(nil, 1<<20)
	n := 0
	for ; sc.Scan(); n++ {
		want, err := json.Marshal(entries[n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sc.Bytes(), want) {
			t.Fatalf("line %d\n got: %s\nwant: %s", n+1, sc.Bytes(), want)
		}
	}
	if n != len(entries) {
		t.Fatalf("journal has %d lines, want %d", n, len(entries))
	}
	got, err := decodeJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleDecodeJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded journal differs from the json.Unmarshal reader's")
	}
}

// oracleCoverageReport is the Map round trip CoverageReport replaced:
// each entry's edge list rebuilt into a coverage.Map and listed again.
func oracleCoverageReport(r *Record) *coverage.Report {
	c := coverage.NewCollector()
	ids := make([]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		ids = append(ids, e.Key().Cell())
	}
	c.Announce(ids)
	for _, e := range r.Entries {
		var m *coverage.Map
		if e.Coverage != nil {
			m = coverage.FromEdges(e.Coverage.EdgeList)
		}
		c.FinishCell(e.Key().Cell(), m)
	}
	return c.Report()
}

// TestCoverageReportMatchesMapReplay checks the report built straight
// from persisted edge lists against the Map round trip, on the
// baseline and on entries whose lists are out of order, repeat an
// edge, are empty, or are missing.
func TestCoverageReportMatchesMapReplay(t *testing.T) {
	rec, _ := loadBaseline(t)
	if got, want := rec.CoverageReport(), oracleCoverageReport(rec); !reflect.DeepEqual(got, want) {
		t.Fatal("baseline coverage report differs from the Map replay")
	}
	odd := *rec
	odd.Entries = append([]*Entry(nil), rec.Entries[:6]...)
	edit := func(i int, f func(c *CoverageRecord)) {
		e := *odd.Entries[i]
		c := *e.Coverage
		c.EdgeList = append([]coverage.Edge(nil), c.EdgeList...)
		f(&c)
		e.Coverage = &c
		odd.Entries[i] = &e
	}
	edit(0, func(c *CoverageRecord) {
		l := c.EdgeList
		l[0], l[len(l)-1] = l[len(l)-1], l[0]
	})
	edit(1, func(c *CoverageRecord) {
		dup := c.EdgeList[1]
		dup.Count += 5
		c.EdgeList = append(c.EdgeList, dup)
	})
	edit(2, func(c *CoverageRecord) { c.EdgeList = nil })
	edit(3, func(c *CoverageRecord) { c.EdgeList = []coverage.Edge{} })
	e := *odd.Entries[4]
	e.Coverage = nil
	odd.Entries[4] = &e
	if got, want := odd.CoverageReport(), oracleCoverageReport(&odd); !reflect.DeepEqual(got, want) {
		t.Fatalf("coverage report differs from the Map replay\n got: %s\nwant: %s", got.Canonical(), want.Canonical())
	}
}
