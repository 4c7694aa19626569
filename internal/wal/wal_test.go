package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sgmldb/internal/faultpoint"
	"sgmldb/internal/object"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
)

func logPath(dir string) string { return filepath.Join(dir, logName) }

func mustOpen(t *testing.T, dir string) (*Log, *Checkpoint, []Record) {
	t.Helper()
	l, ck, tail, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, ck, tail
}

func sampleRecords() []Record {
	return []Record{
		{Kind: KindSchema, Schema: "<!ELEMENT a (#PCDATA)>"},
		{Kind: KindLoad, Docs: []string{"<a>one</a>", "<a>two</a>"}},
		{Kind: KindName, Name: "my_a", OID: 7},
		{Kind: KindLoad, Docs: []string{"<a>three</a>"}},
	}
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, ck, tail := mustOpen(t, dir)
	if ck != nil || len(tail) != 0 {
		t.Fatalf("fresh dir: ck=%v tail=%v", ck, tail)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Seq() != uint64(len(want)) {
		t.Fatalf("Seq = %d, want %d", l.Seq(), len(want))
	}
	l.Close()

	_, ck, tail = mustOpen(t, dir)
	if ck != nil {
		t.Fatalf("unexpected checkpoint: %v", ck)
	}
	if len(tail) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(tail), len(want))
	}
	for i, r := range tail {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d", i, r.Seq)
		}
		if r.Term != 1 {
			t.Errorf("record %d: term %d, want the fresh log's term 1", i, r.Term)
		}
		r.Seq, r.Term = 0, 0
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestLogTornTailTruncated cuts the log at every byte offset inside the
// final record: each prefix must reopen cleanly with the last record
// dropped, and the file must be truncated back to the good prefix.
func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	recs := sampleRecords()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lastLen := len(EncodeFrame(Record{Seq: uint64(len(recs)), Kind: recs[len(recs)-1].Kind, Docs: recs[len(recs)-1].Docs}))
	goodLen := len(full) - lastLen
	for cut := goodLen + 1; cut < len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(logPath(sub), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, ck, tail, err := Open(sub)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if ck != nil || len(tail) != len(recs)-1 {
			t.Fatalf("cut=%d: got %d records, want %d", cut, len(tail), len(recs)-1)
		}
		if l2.Seq() != uint64(len(recs)-1) {
			t.Fatalf("cut=%d: seq %d", cut, l2.Seq())
		}
		l2.Close()
		if after, _ := os.ReadFile(logPath(sub)); len(after) != goodLen {
			t.Fatalf("cut=%d: torn tail not truncated: %d bytes, want %d", cut, len(after), goodLen)
		}
	}
}

// TestLogCorruptionBeforeTail flips a byte inside an early record: with
// records behind the damage, Open must fail with ErrCorruptLog.
func TestLogCorruptionBeforeTail(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (past magic + frame header).
	data[len(logMagic)+frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(logPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(dir)
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("Open on mid-log corruption: %v, want ErrCorruptLog", err)
	}
}

// TestLogCorruptTailAloneTruncated flips a byte in the *last* record: with
// nothing behind it, the damage is indistinguishable from a torn append
// and must be truncated silently.
func TestLogCorruptTailAloneTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	recs := sampleRecords()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(logPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ck, tail, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if ck != nil || len(tail) != len(recs)-1 {
		t.Fatalf("got %d records, want %d", len(tail), len(recs)-1)
	}
}

func TestLogBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir), []byte("not a wal file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("Open on bad magic: %v, want ErrCorruptLog", err)
	}
	// A partial magic (crash while stamping a fresh log) restarts cleanly.
	dir2 := t.TempDir()
	if err := os.WriteFile(logPath(dir2), []byte(logMagic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	l, ck, tail, err := Open(dir2)
	if err != nil || ck != nil || len(tail) != 0 {
		t.Fatalf("Open on partial magic: l=%v ck=%v tail=%v err=%v", l, ck, tail, err)
	}
	if err := l.Append(Record{Kind: KindName, Name: "x", OID: 1}); err != nil {
		t.Fatalf("Append after restamp: %v", err)
	}
	l.Close()
}

// TestUnsupportedVersionMagic: a pre-term (v1) data directory is a
// migration problem, not corruption — Open, Fsck, and DecodeCheckpoint
// all report the distinct ErrUnsupportedVersion, and repair never deletes
// the old-format files (they are healthy data under another codec).
func TestUnsupportedVersionMagic(t *testing.T) {
	// A v1 log header.
	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir), []byte(logMagicV1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(dir)
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Open on v1 log: %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, ErrCorruptLog) {
		t.Fatal("v1 log misclassified as ErrCorruptLog")
	}
	if _, err := Fsck(dir, false); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Fsck -verify on v1 log: %v, want ErrUnsupportedVersion", err)
	}

	// A v1 checkpoint. Repair must not delete it the way it deletes
	// crash-damaged (undecodable) checkpoints.
	dir2 := t.TempDir()
	ckPath := filepath.Join(dir2, checkpointName(2))
	if err := os.WriteFile(ckPath, []byte(checkpointMagicV1+"\nseq 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(ckPath); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("ReadCheckpoint on v1 checkpoint: %v, want ErrUnsupportedVersion", err)
	}
	if _, err := Fsck(dir2, true); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Fsck -repair on v1 checkpoint: %v, want ErrUnsupportedVersion", err)
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("repair deleted the v1 checkpoint: %v", err)
	}
}

func checkpointInstance(t *testing.T) *store.Instance {
	t.Helper()
	s := store.NewSchema()
	if err := s.AddClass("Doc", object.TupleOf(object.TField{Name: "content", Type: object.StringType})); err != nil {
		t.Fatal(err)
	}
	return store.NewInstance(s)
}

func TestCheckpointRoundTripAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	inst := checkpointInstance(t)
	ix := text.NewIndex()
	ix.Add(3, "novel query facilities")
	ck := &Checkpoint{Seq: 3, Epoch: 9, DTD: "<!ELEMENT a (#PCDATA)>", Docs: []uint64{3, 5}, Inst: inst, Index: ix}
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := l.TruncatePrefix(ck.Seq); err != nil {
		t.Fatalf("TruncatePrefix: %v", err)
	}
	l.Close()

	l2, got, tail := mustOpen(t, dir)
	defer l2.Close()
	if got == nil {
		t.Fatal("no checkpoint recovered")
	}
	if got.Seq != 3 || got.Epoch != 9 || got.DTD != ck.DTD || !reflect.DeepEqual(got.Docs, ck.Docs) {
		t.Errorf("checkpoint header = %+v", got)
	}
	if ids := got.Index.Lookup("novel"); len(ids) != 1 || ids[0] != 3 {
		t.Errorf("checkpoint index: %v", ids)
	}
	if len(tail) != 1 || tail[0].Seq != 4 || tail[0].Kind != KindLoad {
		t.Fatalf("tail after truncation = %+v, want the seq-4 load", tail)
	}
	// The next append must continue the pre-checkpoint numbering.
	if err := l2.Append(Record{Kind: KindName, Name: "y", OID: 2}); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 5 {
		t.Errorf("seq after append = %d, want 5", l2.Seq())
	}
}

// TestCheckpointCoversWholeLog checks the skip-by-seq path: when a crash
// hits after WriteCheckpoint but before TruncatePrefix, the log still
// holds records the checkpoint covers; they must be skipped, not
// replayed, and appends must not reuse their sequence numbers.
func TestCheckpointCoversWholeLog(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ck := &Checkpoint{Seq: 4, Epoch: 11, DTD: "d", Docs: nil, Inst: checkpointInstance(t), Index: text.NewIndex()}
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	l.Close() // no TruncatePrefix: simulates the crash window
	l2, got, tail := mustOpen(t, dir)
	defer l2.Close()
	if got == nil || got.Seq != 4 {
		t.Fatalf("checkpoint = %+v", got)
	}
	if len(tail) != 0 {
		t.Fatalf("covered records replayed: %+v", tail)
	}
	if l2.Seq() != 4 {
		t.Errorf("seq = %d, want 4", l2.Seq())
	}
}

// TestNewestValidCheckpointWins writes a good checkpoint and then a newer
// garbage one: recovery must fall back to the older valid file.
func TestNewestValidCheckpointWins(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	defer l.Close()
	ck := &Checkpoint{Seq: 1, Epoch: 2, DTD: "d", Inst: checkpointInstance(t), Index: text.NewIndex()}
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName(9)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := newestCheckpoint(dir)
	if err != nil || got == nil || got.Seq != 1 {
		t.Fatalf("newestCheckpoint = %+v, %v; want the valid seq-1 file", got, err)
	}
}

func TestAppendFailureRewindsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	if err := l.Append(Record{Kind: KindSchema, Schema: "d"}); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(logPath(dir))
	disarm := faultpoint.Arm("wal/post-append", faultpoint.Once(faultpoint.Error(errors.New("boom (injected)"))))
	defer disarm()
	err := l.Append(Record{Kind: KindName, Name: "x", OID: 1})
	if err == nil {
		t.Fatal("armed append succeeded")
	}
	after, _ := os.ReadFile(logPath(dir))
	if len(after) != len(before) {
		t.Fatalf("failed append left %d bytes, want %d", len(after), len(before))
	}
	if l.Seq() != 1 {
		t.Errorf("seq advanced to %d on failed append", l.Seq())
	}
	// The log still works after the rewind.
	if err := l.Append(Record{Kind: KindName, Name: "x", OID: 1}); err != nil {
		t.Fatalf("append after rewind: %v", err)
	}
	l.Close()
	_, _, tail, err := Open(dir)
	if err != nil || len(tail) != 2 {
		t.Fatalf("reopen after rewind: tail=%v err=%v", tail, err)
	}
}
