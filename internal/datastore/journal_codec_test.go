package datastore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"matproj/internal/document"
)

// oldFrame is the framing the journal used before records were appended
// by hand: json.Marshal, then "%08x " + payload.
func oldFrame(t testing.TB, rec journalRecord) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(fmt.Sprintf("%08x ", crc32.Checksum(b, crcTable))), b...)
}

func codecRecords(t testing.TB) []journalRecord {
	t.Helper()
	d := document.MustFromJSON(`{"_id": "m<1>", "f": "a&b", "s": "x\u2028y\u2029z", "n": 3, "x": 1e-7, "big": 1e21, "arr": [null, true, {"k": "é"}], "e": {}}`)
	docBytes, err := d.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	return []journalRecord{
		{Op: journalInsert, Collection: "materials", ID: "mat-1", Doc: docBytes, Gen: 7},
		{Op: journalInsert, Collection: "<coll>&", ID: "id<&>\u2028", Doc: docBytes},
		{Op: journalUpdate, Collection: "bad\xffname", ID: "bad\xfe\xffid", Doc: []byte(`{}`), Gen: 1},
		{Op: journalRemove, Collection: "c", ID: "gone", Gen: 1<<63 - 1},
		{Op: journalDrop, Collection: "c"},
		{Op: journalMeta, Gen: 42},
		{Op: journalMeta},
		{Op: journalIndex, Collection: "c", ID: "band_gap", Doc: []byte(`{"ordered":true,"paths":["band_gap"]}`), Gen: 3},
		{Op: "ctl\x01\"\\op"},
	}
}

// TestJournalAppenderMatchesEncodingJSON pins the journal format: the
// hand-written appender writes exactly json.Marshal's bytes for every
// record shape (HTML characters, U+2028/9, invalid UTF-8 in ids and
// collection names, g = 0 omitted), and appendFrame the old framing.
func TestJournalAppenderMatchesEncodingJSON(t *testing.T) {
	for _, rec := range codecRecords(t) {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, rec); !bytes.Equal(got, want) {
			t.Errorf("appendRecord:\n got  %s\n want %s", got, want)
		}
		if got, want := appendFrame([]byte("prefix"), rec), append([]byte("prefix"), oldFrame(t, rec)...); !bytes.Equal(got, want) {
			t.Errorf("appendFrame:\n got  %s\n want %s", got, want)
		}
	}
}

// TestStageFramesRecordOnce checks the lines stageWrite queues: each
// record with the generation the journal minted for it, framed exactly
// as json.Marshal-then-frame did.
func TestStageFramesRecordOnce(t *testing.T) {
	j := &journal{repl: &replState{}}
	var want [][]byte
	minted := uint64(0)
	for _, rec := range codecRecords(t) {
		var d document.D
		if len(rec.Doc) > 0 {
			var err error
			if d, err = document.FromJSON(rec.Doc); err != nil {
				t.Fatal(err)
			}
		}
		j.stageWrite(rec.Collection, rec.Op, rec.ID, d)
		rec.Gen = 0 // meta records are never minted a generation
		if rec.Op != journalMeta {
			minted++
			rec.Gen = minted
		}
		want = append(want, append(oldFrame(t, rec), '\n'))
	}
	if len(j.pending) != len(want) {
		t.Fatalf("%d frames pending, want %d", len(j.pending), len(want))
	}
	for i, f := range j.pending {
		if !bytes.Equal(f.line, want[i]) {
			t.Errorf("frame %d:\n got  %s\n want %s", i, f.line, want[i])
		}
	}
}

// TestParseRecordRoundTrip checks that parsing a framed record gives back
// its fields and its document as a normalized tree, and that records
// with fields of the wrong type are refused like a torn line.
func TestParseRecordRoundTrip(t *testing.T) {
	for _, rec := range codecRecords(t) {
		got, err := decodeRecord(new(document.Parser), appendFrame(nil, rec))
		if err != nil {
			t.Fatalf("%s: %v", appendRecord(nil, rec), err)
		}
		var wantDoc document.D
		if len(rec.Doc) > 0 {
			if wantDoc, err = document.FromJSON(rec.Doc); err != nil {
				t.Fatal(err)
			}
		}
		want := journalRecord{Op: rec.Op, Collection: rec.Collection, ID: rec.ID, Gen: rec.Gen, doc: wantDoc}
		var old journalRecord
		if err := json.Unmarshal(appendRecord(nil, rec), &old); err != nil {
			t.Fatal(err)
		}
		// Strings come back as encoding/json decodes them (invalid UTF-8
		// already replaced on the way out).
		want.Op, want.Collection, want.ID = old.Op, old.Collection, old.ID
		if got.Op != want.Op || got.Collection != want.Collection || got.ID != want.ID || got.Gen != want.Gen ||
			!document.Equal(map[string]any(got.doc), map[string]any(want.doc)) || (got.doc == nil) != (want.doc == nil) {
			t.Errorf("parse %s = %+v, want %+v", appendRecord(nil, rec), got, want)
		}
	}
	for _, bad := range []string{
		`{"op":"i","c":"x","id":"a","doc":[1],"g":1}`,
		`{"op":"i","c":"x","id":"a","doc":{},"g":1.5}`,
		`{"op":"i","c":"x","id":"a","doc":{},"g":-1}`,
		`{"op":"i","c":"x","id":"a","doc":{},"g":"1"}`,
		`{"op":"i","c":"x","id":"a","doc":{},"g":9223372036854775808}`,
		`{"op":1}`,
		`{"op":"i","c":"x","id":"a","doc":{}} trailing`,
		`[1]`,
	} {
		if _, err := parseRecord(new(document.Parser), []byte(bad)); err == nil {
			t.Errorf("parseRecord(%s) accepted", bad)
		}
	}
}

// dumpState renders a store's whole state — replication generation, and
// per collection its indexes and documents in scan order — as JSON.
func dumpState(t *testing.T, s *Store) []byte {
	t.Helper()
	type collDump struct {
		Name    string
		Indexes []string
		Docs    []json.RawMessage
	}
	out := struct {
		ReplGen     uint64
		Collections []collDump
	}{ReplGen: s.ReplGen()}
	names := s.Collections()
	sort.Strings(names)
	for _, n := range names {
		c := s.C(n)
		st := c.Stats()
		cd := collDump{Name: n, Indexes: st.Indexes}
		docs, err := c.FindAll(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			b, err := d.ToJSON()
			if err != nil {
				t.Fatal(err)
			}
			cd.Docs = append(cd.Docs, b)
		}
		out.Collections = append(out.Collections, cd)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestLegacyStoreReplaysToSameState opens a snapshot and journal written
// by the encoding/json journal (testdata/legacy_store: index definitions,
// special characters, inserts, updates, removes, a bulk write, an index
// drop, a dropped collection, a re-inserted id) and checks that replay
// reaches the state that journal reached (state.json), and that a fresh
// snapshot of it holds the same lines as the old code's (resnapshot).
func TestLegacyStoreReplaysToSameState(t *testing.T) {
	src := filepath.Join("testdata", "legacy_store")
	dir := t.TempDir()
	for _, f := range []string{"journal.ndjson", "snapshot.ndjson"} {
		b, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.Repaired || rec.SnapshotRecords == 0 || rec.JournalRecords == 0 {
		t.Fatalf("recovery = %+v, want both files replayed with no repair", rec)
	}
	want, err := os.ReadFile(filepath.Join(src, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpState(t, s); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs from the writer's:\n got  %s\n want %s", got, want)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	sortedLines := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if got, want := sortedLines(filepath.Join(dir, "snapshot.ndjson")), sortedLines(filepath.Join(src, "resnapshot.ndjson")); got != want {
		t.Fatalf("snapshot lines differ:\n got  %s\n want %s", got, want)
	}
}

// BenchmarkJournalStage measures framing one corpus-shaped insert record
// (stageWrite: document encode, record append, checksum, generation
// mint) with the queue drained between iterations.
func BenchmarkJournalStage(b *testing.B) {
	d := document.MustFromJSON(`{"_id": "mp-1234", "pretty_formula": "LiFePO4", "elements": ["Fe", "Li", "O", "P"],
		"nelements": 4, "band_gap": 3.712, "final_energy": -191.2354, "e_above_hull": 0.0,
		"spacegroup": {"symbol": "Pnma", "number": 62, "crystal_system": "orthorhombic"},
		"structure": {"lattice": [[10.33, 0, 0], [0, 6.01, 0], [0, 0, 4.69]], "sites": 28},
		"tasks": [{"task_id": "t-1", "state": "COMPLETED", "run_s": 3600.5}], "created_at": "2012-06-01T00:00:00Z"}`)
	j := &journal{repl: &replState{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.stageWrite("materials", journalInsert, "mp-1234", d)
		j.pending = j.pending[:0]
	}
}
