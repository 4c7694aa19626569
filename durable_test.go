package sgmldb

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sgmldb/internal/corpus"
	"sgmldb/internal/object"
	"sgmldb/internal/store"
	"sgmldb/internal/wal"
)

// Durable-lifecycle tests: clean-shutdown recovery, checkpoint compaction,
// schema pinning, and the sentinels — the crash-path counterparts live in
// crash_test.go.

// convergenceCorpora are the two synthetic corpora the paper's queries run
// over (bench_test.go B7): Q1–Q5 over articles, Q6 over letters.
var convergenceCorpora = []struct {
	name, dtd string
	doc       func(*corpus.Generator, int) string
	roots     []string // named after the first documents, in order
	queries   []string
}{
	{"articles", corpus.ArticleDTD, (*corpus.Generator).Article, []string{"my_article", "my_old_article"}, []string{
		`select tuple (t: a.title, f_author: first(a.authors))
from a in Articles, s in a.sections
where s.title contains ("Section" and "w0000")`,
		`select ss from a in Articles, s in a.sections, ss in s.subsectns
where ss contains "w0001"`,
		`select t from my_article PATH_p.title(t)`,
		`my_article PATH_p - my_old_article PATH_p`,
		`select name(ATT_a)
from my_article PATH_p.ATT_a(val)
where val contains ("final")`,
	}},
	{"letters", corpus.LettersDTD, (*corpus.Generator).Letter, nil, []string{
		`select letter
from letter in Letters, from(i) in letter.preamble, to(j) in letter.preamble
where i < j`,
	}},
}

// encodeState serialises the published instance and index.
func encodeState(t *testing.T, db *Database) (inst, index []byte) {
	t.Helper()
	var ib, xb bytes.Buffer
	st := db.state()
	if err := store.Save(&ib, st.Snap.Inst); err != nil {
		t.Fatal(err)
	}
	if err := st.Index.Encode(&xb); err != nil {
		t.Fatal(err)
	}
	return ib.Bytes(), xb.Bytes()
}

// assertSameDatabase requires got to be indistinguishable from want: same
// epoch, documents and instance statistics, the same answers under both
// evaluators, and byte-identical instance and index encodings.
func assertSameDatabase(t *testing.T, what string, want, got *Database, queries []string) {
	t.Helper()
	if want.Epoch() != got.Epoch() {
		t.Errorf("%s: epoch = %d, want %d", what, got.Epoch(), want.Epoch())
	}
	if w, g := want.Loader.Documents(), got.Loader.Documents(); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: documents = %v, want %v", what, g, w)
	}
	if w, g := want.Stats().Stats, got.Stats().Stats; !reflect.DeepEqual(w, g) {
		t.Errorf("%s: instance stats = %+v, want %+v", what, g, w)
	}
	for _, q := range queries {
		for _, algebra := range []bool{false, true} {
			want.Engine.UseAlgebra, got.Engine.UseAlgebra = algebra, algebra
			w, err := want.Query(q)
			if err != nil {
				t.Fatalf("%s: reference query %q (algebra=%v): %v", what, q, algebra, err)
			}
			g, err := got.Query(q)
			if err != nil {
				t.Fatalf("%s: query %q (algebra=%v): %v", what, q, algebra, err)
			}
			if !object.Equal(w, g) {
				t.Errorf("%s: %q (algebra=%v) = %s, want %s", what, q, algebra, g, w)
			}
		}
	}
	wi, wx := encodeState(t, want)
	gi, gx := encodeState(t, got)
	if !bytes.Equal(wi, gi) {
		t.Errorf("%s: instance section differs (%d vs %d bytes)", what, len(gi), len(wi))
	}
	if !bytes.Equal(wx, gx) {
		t.Errorf("%s: index section differs (%d vs %d bytes)", what, len(gx), len(wx))
	}
}

// TestDurableRecoveryRoundTrip: loading is a deterministic function of
// (DTD, documents), so one corpus reached four ways is one database. The
// live primary (batches, namings, a checkpoint mid-history), a follower
// that bootstraps from that checkpoint and tails the log, a Save →
// OpenSnapshot copy, and a recovery from the data directory must be
// indistinguishable — and the copies stay ordinary databases: the snapshot
// takes a load and exports it, the recovered directory takes writes that
// survive another recovery.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	for _, c := range convergenceCorpora {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			g := corpus.NewGenerator(corpus.Params{Docs: 8, Seed: 1})
			srcs := make([]string, 8)
			for i := range srcs {
				srcs[i] = c.doc(g, i)
			}
			open := func() *Database {
				db, err := OpenDTD(c.dtd, WithDataDir(dir), WithCheckpointEvery(-1))
				if err != nil {
					t.Fatalf("open %s: %v", dir, err)
				}
				t.Cleanup(func() { db.Close() })
				return db
			}
			live := open()
			oids, err := live.LoadDocuments(srcs[:4])
			if err != nil {
				t.Fatal(err)
			}
			for i, root := range c.roots {
				if err := live.Name(root, oids[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := live.LoadDocuments(srcs[4:7]); err != nil {
				t.Fatal(err)
			}
			if _, err := live.LoadDocument(srcs[7]); err != nil {
				t.Fatal(err)
			}

			// Follower: bootstrap from the checkpoint, then tail the log.
			follower, err := OpenFollower(c.dtd)
			if err != nil {
				t.Fatal(err)
			}
			ckPath, _, ok, err := live.NewestCheckpointFile()
			if err != nil || !ok {
				t.Fatalf("NewestCheckpointFile: ok = %v, err = %v", ok, err)
			}
			ck, err := wal.ReadCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := follower.ApplyCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
			frames, _, err := live.FeedFrames(follower.AppliedSeq(), follower.Term(), 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			for len(frames) > 0 {
				rec, n, err := wal.DecodeFrame(frames)
				if err != nil {
					t.Fatal(err)
				}
				frames = frames[n:]
				if err := follower.ApplyRecord(rec); err != nil {
					t.Fatal(err)
				}
			}
			assertSameDatabase(t, "follower bootstrap + tail", live, follower, c.queries)

			// Snapshot: a checkpoint file of the published version.
			snapPath := filepath.Join(t.TempDir(), "db.snap")
			if err := live.Save(snapPath); err != nil {
				t.Fatal(err)
			}
			snap, err := OpenSnapshot(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDatabase(t, "Save + OpenSnapshot", live, snap, c.queries)

			// Recovery: checkpoint + replay of the log tail.
			live.Close()
			rdb := open()
			assertSameDatabase(t, "recovery", live, rdb, c.queries)

			// The snapshot-opened database is an ordinary primary.
			extra := c.doc(g, 8)
			oid, err := snap.LoadDocument(extra)
			if err != nil {
				t.Fatalf("load on snapshot: %v", err)
			}
			out, err := snap.Export(oid)
			if err != nil {
				t.Fatalf("export on snapshot: %v", err)
			}
			if _, err := snap.LoadDocument(out); err != nil {
				t.Errorf("re-load of snapshot export: %v", err)
			}

			// The recovered database accepts further writes, which survive
			// another recovery — and match the same write on the snapshot.
			if _, err := rdb.LoadDocument(extra); err != nil {
				t.Fatalf("load after recovery: %v", err)
			}
			if _, err := rdb.LoadDocument(out); err != nil {
				t.Fatalf("load after recovery: %v", err)
			}
			assertSameDatabase(t, "snapshot vs recovery after the same writes", rdb, snap, c.queries)
			rdb.Close()
			assertSameDatabase(t, "second recovery", rdb, open(), c.queries)
		})
	}
}

// TestDurableCheckpointTruncatesLog checkpoints and asserts the log
// shrank to (at most) its header while recovery still reproduces the full
// state from the checkpoint alone.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	if _, err := db.LoadDocuments([]string{src, src}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("log after checkpoint: %d bytes, want < %d", len(after), len(before))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "checkpoint-") {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Errorf("checkpoint files = %d, want 1", ckpts)
	}
	epoch := db.Epoch()
	docs := len(db.Loader.Documents())
	count := articleCount(t, db)
	db.Close()

	rdb := reopenDurable(t, dir)
	if got := rdb.Epoch(); got != epoch {
		t.Errorf("recovered epoch = %d, want %d", got, epoch)
	}
	if got := len(rdb.Loader.Documents()); got != docs {
		t.Errorf("recovered documents = %d, want %d", got, docs)
	}
	if got := articleCount(t, rdb); got != count {
		t.Errorf("recovered articles = %d, want %d", got, count)
	}
	mustQuery(t, rdb, chaosQuery) // the naming came back through the checkpoint
	// Writes after a checkpoint land in the (truncated) log and recover on
	// top of the checkpointed base.
	if _, err := rdb.LoadDocuments([]string{src}); err != nil {
		t.Fatal(err)
	}
	epoch2 := rdb.Epoch()
	rdb.Close()
	rdb2 := reopenDurable(t, dir)
	if got := rdb2.Epoch(); got != epoch2 {
		t.Errorf("post-checkpoint recovery epoch = %d, want %d", got, epoch2)
	}
	if got := len(rdb2.Loader.Documents()); got != docs+1 {
		t.Errorf("post-checkpoint recovery documents = %d, want %d", got, docs+1)
	}
}

// TestDurableAutoCheckpoint lets the background checkpointer (cadence 2)
// compact the log and asserts recovery still works — the asynchronous
// variant of the test above.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd), WithDataDir(dir), WithCheckpointEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	src := articleSrc(t)
	for i := 0; i < 6; i++ {
		if _, err := db.LoadDocuments([]string{src}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := db.Epoch()
	docs := len(db.Loader.Documents())
	db.Close() // waits for the checkpointer to drain

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "checkpoint-") {
			found = true
		}
	}
	if !found {
		t.Error("no checkpoint file after 6 committed records at cadence 2")
	}
	rdb := reopenDurable(t, dir)
	if got := rdb.Epoch(); got != epoch {
		t.Errorf("recovered epoch = %d, want %d", got, epoch)
	}
	if got := len(rdb.Loader.Documents()); got != docs {
		t.Errorf("recovered documents = %d, want %d", got, docs)
	}
}

// TestDurableDTDPinned asserts a data directory refuses a different DTD —
// both via the schema log record and via a checkpoint.
func TestDurableDTDPinned(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	other := `<!ELEMENT note (#PCDATA)>`
	if _, err := OpenDTD(other, WithDataDir(t.TempDir())); err != nil {
		t.Fatalf("control open: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := OpenDTD(other, WithDataDir(dir)); err == nil || !strings.Contains(err.Error(), "different DTD") {
		t.Errorf("open with different DTD: err = %v, want DTD mismatch", err)
	}
}

// TestDurableSnapshotRejected: OpenSnapshot opens an in-memory database (a
// data directory recovers from its own checkpoints), so combining it with
// WithDataDir must fail loudly, not silently run without durability.
func TestDurableSnapshotRejected(t *testing.T) {
	db := openChaosDB(t)
	snap := filepath.Join(t.TempDir(), "db.snapshot")
	if err := db.Save(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(snap, WithDataDir(t.TempDir())); err == nil {
		t.Error("OpenSnapshot with WithDataDir succeeded, want error")
	}
	if _, err := OpenSnapshot(snap); err != nil {
		t.Errorf("OpenSnapshot without data dir: %v", err)
	}
}

// TestDurableErrCorruptLogRoundTrip pins the sentinel plumbing: the
// public alias, errors.Is through the facade's wrapping, and that a torn
// tail does NOT surface it.
func TestDurableErrCorruptLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	if _, err := db.LoadDocuments([]string{articleSrc(t)}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: drop the last byte — recovery succeeds, no sentinel.
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	rdb := reopenDurable(t, dir)
	rdb.Close()
	// Non-tail damage: flip a payload byte of the first record (the CRC
	// fails with records behind it, which cannot be a torn tail).
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[13+8+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenDTD(string(dtd), WithDataDir(dir))
	if err == nil {
		t.Fatal("open on corrupt log succeeded")
	}
	if !errors.Is(err, ErrCorruptLog) {
		t.Errorf("errors.Is(err, sgmldb.ErrCorruptLog) = false for %v", err)
	}
}

// TestDurableCloseIdempotent: Close twice, and Close on an in-memory
// database, are no-ops.
func TestDurableCloseIdempotent(t *testing.T) {
	db := openChaosDB(t)
	if err := db.Close(); err != nil {
		t.Errorf("Close on in-memory db: %v", err)
	}
	dir := t.TempDir()
	ddb := seedDurableDB(t, dir)
	if err := ddb.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := ddb.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Closed is a role: every mutation after Close fails fast with
	// READ_ONLY — before parsing, without touching the closed log file. A
	// write that reached the file would fail its rewind, poison the log and
	// report a fabricated storage fault.
	root, _ := ddb.Instance().Root("Articles")
	first := root.(*object.List).At(0).(object.OID)
	for what, err := range map[string]error{
		"LoadDocuments": func() error { _, err := ddb.LoadDocuments([]string{articleSrc(t)}); return err }(),
		"unparsable":    func() error { _, err := ddb.LoadDocuments([]string{"<bogus>"}); return err }(),
		"Name":          ddb.Name("after_close", first),
		"Checkpoint":    ddb.Checkpoint(),
	} {
		if !errors.Is(err, ErrReadOnly) || !strings.Contains(err.Error(), "database is closed") {
			t.Errorf("%s after Close: err = %v, want ErrReadOnly (database is closed)", what, err)
		}
	}
	if st := ddb.Stats(); st.Degraded || st.Role != "closed" || ddb.Role() != st.Role {
		t.Errorf("after Close: Degraded = %v (%q), Role = %q; want a healthy closed node", st.Degraded, st.DegradedReason, st.Role)
	}
	mustQuery(t, ddb, chaosQuery)

	// The follower-side operations refuse the same way.
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	fdb, err := OpenFollower(string(dtd), WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fdb.Close()
	_, perr := fdb.Promote()
	for what, err := range map[string]error{
		"ApplyRecord":     fdb.ApplyRecord(wal.Record{Seq: 1, Kind: wal.KindSchema, Schema: string(dtd)}),
		"ApplyCheckpoint": fdb.ApplyCheckpoint(&wal.Checkpoint{Seq: 1, Term: 1, DTD: string(dtd)}),
		"Promote":         perr,
	} {
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s after Close: err = %v, want ErrReadOnly", what, err)
		}
	}
	if st := fdb.Stats(); st.Degraded || st.Role != "closed" {
		t.Errorf("closed follower: Degraded = %v, Role = %q", st.Degraded, st.Role)
	}
}

// TestDurableCloseRacesLoads: Close lands while writers are mid-flight.
// Every load either committed before the close or is refused READ_ONLY —
// none reaches the closed file, so the node never reports a storage fault.
func TestDurableCloseRacesLoads(t *testing.T) {
	db := seedDurableDB(t, t.TempDir())
	src := articleSrc(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.LoadDocument(src); err != nil {
					if !errors.Is(err, ErrReadOnly) {
						t.Errorf("load racing Close: err = %v, want nil or ErrReadOnly", err)
					}
					return
				}
			}
		}()
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if st := db.Stats(); st.Degraded || st.Role != "closed" {
		t.Errorf("after racing Close: Degraded = %v (%q), Role = %q", st.Degraded, st.DegradedReason, st.Role)
	}
}

// TestInMemoryUnchanged: without WithDataDir nothing durable is
// configured — no log, no checkpointer, no files — and loads behave as
// before.
func TestInMemoryUnchanged(t *testing.T) {
	db := openChaosDB(t)
	if db.walLog != nil || db.ckptCh != nil || db.dataDir != "" {
		t.Error("in-memory database grew durability state")
	}
	if _, err := db.LoadDocuments([]string{articleSrc(t)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Errorf("Checkpoint on in-memory db: %v", err)
	}
}
