package sgmldb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sgmldb/internal/calculus"
	"sgmldb/internal/faultpoint"
	"sgmldb/internal/object"
	"sgmldb/internal/store"
)

// The facade promises sentinel errors testable with errors.Is, no matter
// how many wrapping layers the failing operation adds.

// TestSnapshotLoadsAndExports: a snapshot carries its DTD, so the opened
// database is an ordinary primary — it takes a load and exports it back.
func TestSnapshotLoadsAndExports(t *testing.T) {
	db := openArticleDB(t)
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.snap")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := snap.LoadDocument(string(src))
	if err != nil {
		t.Fatalf("LoadDocument on snapshot: %v", err)
	}
	const articles = `select a from a in Articles`
	if got, want := mustQuery(t, snap, articles).Len(), mustQuery(t, db, articles).Len()+1; got != want {
		t.Errorf("snapshot articles after load = %d, want %d", got, want)
	}
	out, err := snap.Export(oid)
	if err != nil {
		t.Fatalf("Export on snapshot: %v", err)
	}
	if _, err := snap.LoadDocument(out); err != nil {
		t.Errorf("re-load of snapshot export: %v", err)
	}
	if err := snap.Name("from_snapshot", oid); err != nil {
		t.Errorf("Name on snapshot: %v", err)
	}
}

// TestSnapshotOldFormatRefused: a file in the retired store-only snapshot
// format is healthy data this build cannot read — UNSUPPORTED_VERSION, not
// a parse error.
func TestSnapshotOldFormatRefused(t *testing.T) {
	db := openArticleDB(t)
	path := filepath.Join(t.TempDir(), "old.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(f, db.Instance()); err != nil { // the old file was a bare store section
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSnapshot(path)
	if !errors.Is(err, ErrUnsupportedVersion) || Code(err) != CodeUnsupported {
		t.Errorf("OpenSnapshot(old format): err = %v (code %q), want ErrUnsupportedVersion", err, Code(err))
	}
}

func TestErrUnknownObjectFromName(t *testing.T) {
	db := openArticleDB(t)
	err := db.Name("ghost", object.OID(1<<40))
	if !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Name with bogus oid: err = %v, want errors.Is ErrUnknownObject", err)
	}
}

func TestErrBudgetExceededFromQuery(t *testing.T) {
	db, err := OpenDTDFile("testdata/article.dtd", WithQueryTimeout(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db.LoadDocumentFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_article", oid); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query(`select t from my_article PATH_p.title(t)`)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("query over budget: err = %v, want errors.Is ErrBudgetExceeded", err)
	}
	// The facade sentinel aliases the internal one, so errors.Is holds
	// across layers.
	if !errors.Is(err, calculus.ErrBudgetExceeded) {
		t.Errorf("query over budget: err = %v, want errors.Is calculus.ErrBudgetExceeded", err)
	}
}

// TestErrInternalFromEvaluatorPanic: an evaluation panic is contained as
// ErrInternal, while a caller error — a nil context, at each of the four
// query entry points — is an ordinary error: not ErrInternal, and not
// counted as a contained panic.
func TestErrInternalFromEvaluatorPanic(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	db := openArticleDB(t)
	const q = `select t from my_article PATH_p.title(t)`
	disarm := faultpoint.Arm("calculus/eval", faultpoint.Panic("kaboom"))
	_, err := db.Query(q)
	disarm()
	if !errors.Is(err, ErrInternal) {
		t.Errorf("query under panic: err = %v, want errors.Is ErrInternal", err)
	}
	if !errors.Is(err, calculus.ErrInternal) {
		t.Errorf("query under panic: err = %v, want errors.Is calculus.ErrInternal", err)
	}

	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	var nilCtx context.Context
	panicsPre := db.Stats().PanicsContained
	for name, call := range map[string]func() error{
		"QueryContext":       func() error { _, err := db.QueryContext(nilCtx, q); return err },
		"QueryRowsContext":   func() error { _, err := db.QueryRowsContext(nilCtx, q); return err },
		"PreparedQuery.Run":  func() error { _, err := pq.Run(nilCtx); return err },
		"PreparedQuery.Rows": func() error { _, err := pq.Rows(nilCtx); return err },
	} {
		err := call()
		if err == nil || errors.Is(err, ErrInternal) {
			t.Errorf("%s(nil context): err = %v, want an ordinary error", name, err)
		}
	}
	if got := db.Stats().PanicsContained; got != panicsPre {
		t.Errorf("nil contexts counted %d contained panics, want 0", got-panicsPre)
	}
}

// TestErrOverloadedQueueTimeoutBounded asserts both the sentinel and the
// bound: a shed query waits roughly the configured queue timeout — not
// forever, and not zero (it did queue).
func TestErrOverloadedQueueTimeoutBounded(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	const wait = 50 * time.Millisecond
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd), WithMaxConcurrentQueries(1), WithQueueTimeout(wait))
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db.LoadDocument(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_article", oid); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	defer faultpoint.Arm("calculus/eval", faultpoint.Once(func() error {
		close(entered)
		<-release
		return nil
	}))()
	defer close(release)
	holder := make(chan error, 1)
	go func() {
		_, err := db.Query(`select t from my_article PATH_p.title(t)`)
		holder <- err
	}()
	<-entered

	start := time.Now()
	_, err = db.Query(`select t from my_article PATH_p.title(t)`)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued query: err = %v, want errors.Is ErrOverloaded", err)
	}
	if elapsed < wait {
		t.Errorf("shed after %v, want >= %v (the query must queue first)", elapsed, wait)
	}
	if elapsed > 10*wait {
		t.Errorf("shed after %v, want well under %v (the timeout bounds the wait)", elapsed, 10*wait)
	}
}
