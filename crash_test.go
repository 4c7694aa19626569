package sgmldb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sgmldb/internal/faultpoint"
	"sgmldb/internal/wal"
)

// The crash-recovery chaos suite (make crash runs it under -race). Each
// test arms a faultpoint on the durable commit path with an injector that
// *photographs the data directory at the seam* — exactly the bytes a
// process killed at that instant would leave behind — and then fails the
// operation. Reopening the photograph as a fresh process recovers; the
// suite asserts recovery always lands on the pre-operation or
// post-operation durable state, never a hybrid, and that the pinned
// reference query answers identically to the corresponding pre-crash
// snapshot.

// copyDirFiles snapshots every regular file in src into dst.
func copyDirFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// crashAt returns an injector that snapshots dir into img and then fails
// with errBoom — the moment of the simulated kill.
func crashAt(dir, img string) func() error {
	return func() error {
		if err := copyDirFiles(dir, img); err != nil {
			return fmt.Errorf("crash snapshot: %w", err)
		}
		return errBoom
	}
}

// seedDurableDB opens a durable database in dir, loads one article and
// names it my_article — the pre-crash baseline every test starts from.
// Automatic checkpointing is disabled so tests control the checkpoint
// timing themselves.
func seedDurableDB(t *testing.T, dir string, opts ...Option) *Database {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithDataDir(dir), WithCheckpointEvery(-1)}, opts...)
	db, err := OpenDTD(string(dtd), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	oid, err := db.LoadDocumentFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_article", oid); err != nil {
		t.Fatal(err)
	}
	return db
}

// reopenDurable recovers a data directory as a fresh process would.
func reopenDurable(t *testing.T, dir string) *Database { return recoverDir(t, dir, OpenDTD) }

// recoverDir opens a data directory with open (OpenDTD for a primary's,
// OpenFollower for a durable follower's) as a fresh process would.
func recoverDir(t *testing.T, dir string, open func(string, ...Option) (*Database, error)) *Database {
	t.Helper()
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	db, err := open(string(dtd), WithDataDir(dir), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// articleCount counts loaded articles through the reference query path.
func articleCount(t *testing.T, db *Database) int {
	t.Helper()
	return mustQuery(t, db, `select t from a in Articles, a PATH_p.title(t)`).Len()
}

// seedDurableFollower opens a durable follower in dir and applies the
// shipped history seedDurableDB writes on a primary: the schema record,
// one article, and its naming as my_article.
func seedDurableFollower(t *testing.T, dir string) *Database {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenFollower(string(dtd), WithDataDir(dir), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, rec := range []wal.Record{
		{Seq: 1, Term: 1, Kind: wal.KindSchema, Schema: string(dtd)},
		{Seq: 2, Term: 1, Kind: wal.KindLoad, Docs: []string{articleSrc(t)}},
	} {
		if err := db.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	oid := db.Loader.Documents()[0]
	if err := db.ApplyRecord(wal.Record{Seq: 3, Term: 1, Kind: wal.KindName, Name: "my_article", OID: uint64(oid)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// crashState is what a commit may change: the published epoch, the term,
// the loaded documents, and whether the root "second" is bound.
type crashState struct {
	epoch, term uint64
	docs        int
	named       bool
}

func stateOf(db *Database) crashState {
	_, named := db.Schema().RootType("second")
	return crashState{epoch: db.Epoch(), term: db.Term(), docs: len(db.Loader.Documents()), named: named}
}

// TestCrashCommitSeams kills every kind of commit — a primary's load and
// naming, a durable follower's apply of a shipped record, and a promotion
// — at every WAL seam, and asserts three things. The live node is exactly
// as before: epoch, term and role unchanged. The crash image recovers to
// exactly the pre-commit or the post-commit state, never a hybrid. Which
// one is determined by durability: before the record is written the
// commit must be lost, after the fsync it must survive. A commit that
// published before its append would fail the first assertion.
func TestCrashCommitSeams(t *testing.T) {
	seams := []struct {
		site    string
		durable bool // the crash image holds the full record
	}{
		{"wal/append", false},
		{"wal/post-append", true}, // written in the image; real page-cache loss is the torn-tail test
		{"wal/post-fsync", true},
	}
	kinds := []struct {
		name     string
		follower bool // seed and recover a durable follower, not a primary
		commit   func(db *Database, src string) error
		post     func(pre crashState) crashState
	}{
		{
			name: "load",
			commit: func(db *Database, src string) error {
				_, err := db.LoadDocuments([]string{src})
				return err
			},
			post: func(s crashState) crashState { s.epoch++; s.docs++; return s },
		},
		{
			name:   "name",
			commit: func(db *Database, _ string) error { return db.Name("second", db.Loader.Documents()[0]) },
			post:   func(s crashState) crashState { s.epoch++; s.named = true; return s },
		},
		{
			name:     "follower-apply",
			follower: true,
			commit: func(db *Database, src string) error {
				return db.ApplyRecord(wal.Record{Seq: db.AppliedSeq() + 1, Term: 1, Kind: wal.KindLoad, Docs: []string{src}})
			},
			post: func(s crashState) crashState { s.epoch++; s.docs++; return s },
		},
		{
			name:     "promote",
			follower: true,
			commit: func(db *Database, _ string) error {
				_, err := db.Promote()
				return err
			},
			post: func(s crashState) crashState { s.term++; return s },
		},
	}
	for _, seam := range seams {
		t.Run(seam.site, func(t *testing.T) {
			for _, kind := range kinds {
				t.Run(kind.name, func(t *testing.T) {
					dir := t.TempDir()
					var db *Database
					open := OpenDTD
					if kind.follower {
						db, open = seedDurableFollower(t, dir), OpenFollower
					} else {
						db = seedDurableDB(t, dir)
					}
					src := articleSrc(t)
					pre, rolePre := stateOf(db), db.Role()
					articlesPerDoc := articleCount(t, db) / pre.docs
					titlesPre := mustQuery(t, db, chaosQuery).Len()

					img := t.TempDir()
					disarm := faultpoint.Arm(seam.site, crashAt(dir, img))
					err := kind.commit(db, src)
					disarm()
					if !errors.Is(err, errBoom) {
						t.Fatalf("commit at %s: err = %v, want errBoom", seam.site, err)
					}
					// The live node rolled back: nothing was published, no term
					// adopted, no role changed.
					if got := stateOf(db); got != pre {
						t.Errorf("live state after failed commit = %+v, want %+v", got, pre)
					}
					if got := db.Role(); got != rolePre {
						t.Errorf("live role after failed commit = %s, want %s", got, rolePre)
					}
					if got := articleCount(t, db); got != articlesPerDoc*pre.docs {
						t.Errorf("live articles after failed commit = %d, want %d", got, articlesPerDoc*pre.docs)
					}

					// Recover the crash image as a fresh process.
					rdb := recoverDir(t, img, open)
					want := pre
					if seam.durable {
						want = kind.post(pre)
					}
					if got := stateOf(rdb); got != want {
						t.Fatalf("recovered state = %+v, want %+v (pre %+v, post %+v; never a hybrid)",
							got, want, pre, kind.post(pre))
					}
					// Every loaded document is the same article, so the reference
					// count scales with the document count, and the pinned query
					// answers identically to the pre-crash snapshot (the extra
					// document adds articles, not titles under my_article).
					if got := articleCount(t, rdb); got != articlesPerDoc*want.docs {
						t.Errorf("recovered articles = %d, want %d", got, articlesPerDoc*want.docs)
					}
					if got := mustQuery(t, rdb, chaosQuery).Len(); got != titlesPre {
						t.Errorf("recovered reference query = %d titles, want %d", got, titlesPre)
					}
				})
			}
		})
	}
}

// TestCrashTornTail cuts the recovered log at every byte offset inside
// its final record: recovery must silently truncate the torn record and
// serve the pre-batch state — the page-cache-loss counterpart of the
// post-append seam.
func TestCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	epochPre := db.Epoch()
	countPre := articleCount(t, db)
	logBefore, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments([]string{src}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	logAfter, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logAfter) <= len(logBefore) {
		t.Fatal("load appended nothing")
	}
	// Sample cut points across the appended record (every offset is
	// covered at the wal layer; here a spread proves the facade path).
	for cut := len(logBefore) + 1; cut < len(logAfter); cut += 7 {
		img := t.TempDir()
		if err := copyDirFiles(dir, img); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, "wal.log"), logAfter[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb := reopenDurable(t, img)
		if got := rdb.Epoch(); got != epochPre {
			t.Fatalf("cut=%d: recovered epoch = %d, want %d (torn batch dropped)", cut, got, epochPre)
		}
		if got := articleCount(t, rdb); got != countPre {
			t.Fatalf("cut=%d: recovered articles = %d, want %d", cut, got, countPre)
		}
		rdb.Close()
	}
}

// TestCrashCheckpointSeams kills the checkpointer mid-write and
// pre-rename: either way the checkpoint must simply not exist yet, and
// recovery must reproduce the exact pre-crash state from the log (or the
// previous checkpoint). The leftover temp file must not confuse — or
// outlive — the next successful checkpoint.
func TestCrashCheckpointSeams(t *testing.T) {
	for _, site := range []string{"wal/checkpoint-write", "wal/checkpoint-rename"} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			db := seedDurableDB(t, dir)
			src := articleSrc(t)
			if _, err := db.LoadDocuments([]string{src, src}); err != nil {
				t.Fatal(err)
			}
			epochPre := db.Epoch()
			countPre := articleCount(t, db)

			img := t.TempDir()
			disarm := faultpoint.Arm(site, crashAt(dir, img))
			err := db.Checkpoint()
			disarm()
			if !errors.Is(err, errBoom) {
				t.Fatalf("checkpoint at %s: err = %v, want errBoom", site, err)
			}
			if site == "wal/checkpoint-write" {
				// The photograph holds a partial temp file: the flushed
				// envelope and none of the sections after it.
				tmps, _ := filepath.Glob(filepath.Join(img, "checkpoint.tmp-*"))
				if len(tmps) != 1 {
					t.Fatalf("temp files in the crash image = %v, want one", tmps)
				}
				part, err := os.ReadFile(tmps[0])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(part, []byte("sgmldb-checkpoint 2\n")) || bytes.HasSuffix(part, []byte("end\n")) {
					t.Errorf("crash image temp file is not a partial checkpoint (%d bytes)", len(part))
				}
			}

			rdb := reopenDurable(t, img)
			if got := rdb.Epoch(); got != epochPre {
				t.Errorf("recovered epoch = %d, want %d", got, epochPre)
			}
			if got := articleCount(t, rdb); got != countPre {
				t.Errorf("recovered articles = %d, want %d", got, countPre)
			}
			mustQuery(t, rdb, chaosQuery)

			// The recovered database can checkpoint cleanly, and doing so
			// clears any leftover temp file from the crashed attempt.
			if err := rdb.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
			entries, err := os.ReadDir(img)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if len(e.Name()) >= 14 && e.Name()[:14] == "checkpoint.tmp" {
					t.Errorf("stale checkpoint temp file survived: %s", e.Name())
				}
			}
		})
	}
}

// TestCrashCorruptLogSurfaces damages a non-tail record and asserts the
// facade refuses to open with ErrCorruptLog (via the public alias).
func TestCrashCorruptLogSurfaces(t *testing.T) {
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
	// Flip a byte in the first record's payload (13-byte magic + 8-byte
	// frame header, then payload) — well before the tail.
	data[13+8+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenDTD(string(dtd), WithDataDir(dir))
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("open on mid-log corruption: err = %v, want errors.Is(err, ErrCorruptLog)", err)
	}
}

// TestCrashReadersServeDuringWedgedDurableLoad parks a durable load at
// the post-append seam (record written, publish pending) and asserts
// concurrent readers keep answering from the published snapshot — the
// durability machinery lives entirely on the writer path.
func TestCrashReadersServeDuringWedgedDurableLoad(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	epoch0 := db.Epoch()
	titles0 := mustQuery(t, db, chaosQuery).Len()

	entered := make(chan struct{})
	release := make(chan struct{})
	disarm := faultpoint.Arm("wal/post-append", faultpoint.Once(func() error {
		close(entered)
		<-release
		return errBoom
	}))
	defer disarm()

	loadErr := make(chan error, 1)
	go func() {
		_, err := db.LoadDocuments([]string{src})
		loadErr <- err
	}()
	<-entered // the writer is wedged mid-commit, record written
	for i := 0; i < 4; i++ {
		if got := mustQuery(t, db, chaosQuery).Len(); got != titles0 {
			t.Errorf("query %d during wedged load: %d titles, want %d", i, got, titles0)
		}
	}
	if got := db.Epoch(); got != epoch0 {
		t.Errorf("epoch during wedged load = %d, want %d", got, epoch0)
	}
	close(release)
	if err := <-loadErr; !errors.Is(err, errBoom) {
		t.Errorf("wedged load err = %v, want errBoom", err)
	}
	disarm()
	// The failed durable load rolled back everything, including the log:
	// the next load and a reopen both see a consistent history.
	if _, err := db.LoadDocuments([]string{src}); err != nil {
		t.Fatalf("load after wedge: %v", err)
	}
	epochEnd := db.Epoch()
	countEnd := articleCount(t, db)
	db.Close()
	rdb := reopenDurable(t, dir)
	if got := rdb.Epoch(); got != epochEnd {
		t.Errorf("recovered epoch = %d, want %d", got, epochEnd)
	}
	if got := articleCount(t, rdb); got != countEnd {
		t.Errorf("recovered articles = %d, want %d", got, countEnd)
	}
}

// TestCrashFailedLoadsLeaveNothingReachable is the regression test for
// the eager-discard fix on the shared-storage structures: however many
// loads fail — after the instance was staged, or halfway through indexing
// — the loader sits on the published version (not an abandoned staged
// one), the published instance and index encode to the bytes they encoded
// to before, and the load that finally succeeds lands exactly where it
// would have landed had nothing failed.
func TestCrashFailedLoadsLeaveNothingReachable(t *testing.T) {
	db := openChaosDB(t)
	clean := openChaosDB(t)
	src := articleSrc(t)
	published := db.Loader.Instance
	index0 := db.state().Index
	inst0, ix0 := encodeState(t, db)
	for i := 0; i < 20; i++ {
		site, want := "dtdmap/set-root", errBoom
		if i%2 == 1 {
			// The second document's Add: the first has already appended to
			// posting lists the published index shares.
			site, want = "text/index-add", ErrInternal
		}
		disarm := faultpoint.Arm(site, faultpoint.After(int64(i%2), faultpoint.Error(errBoom)))
		_, err := db.LoadDocuments([]string{src, src})
		disarm()
		if !errors.Is(err, want) {
			t.Fatalf("load %d (%s): err = %v, want %v", i, site, err, want)
		}
		if db.Loader.Instance != published {
			t.Fatalf("load %d: loader left on an abandoned staged version", i)
		}
		if db.state().Index != index0 {
			t.Fatalf("load %d: a failed load published an index", i)
		}
		if inst, ix := encodeState(t, db); !bytes.Equal(inst, inst0) || !bytes.Equal(ix, ix0) {
			t.Fatalf("load %d: the published version changed under a failed load", i)
		}
	}
	for _, d := range []*Database{db, clean} {
		if _, err := d.LoadDocuments([]string{src, src}); err != nil {
			t.Fatalf("load after disarm: %v", err)
		}
	}
	assertSameDatabase(t, "after 20 failed loads", clean, db, []string{chaosQuery})
}
