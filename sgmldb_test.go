package sgmldb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgmldb/internal/object"
)

func openArticleDB(t *testing.T) *Database {
	t.Helper()
	db, err := OpenDTDFile("testdata/article.dtd")
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
	return db
}

func TestFacadeQuickstart(t *testing.T) {
	db := openArticleDB(t)
	if errs := db.Check(); len(errs) != 0 {
		t.Fatalf("Check = %v", errs)
	}
	// Figure 3 schema rendering.
	if !strings.Contains(db.SchemaString(), "class Article") {
		t.Error("SchemaString")
	}
	// Q3 through the facade.
	got, err := db.Query(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	s := got.(*object.Set)
	if s.Len() < 3 {
		t.Errorf("titles = %s", s)
	}
	// Algebra mode agrees.
	db.Engine.UseAlgebra = true
	got2, err := db.Query(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(got, got2) {
		t.Error("algebra mode must agree with naive mode")
	}
	// Text extraction.
	art, _ := db.Instance().Root("my_article")
	if !strings.Contains(db.Text(art), "Structured Documents") {
		t.Error("Text")
	}
	if db.Stats().Objects == 0 {
		t.Error("Stats")
	}
}

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	db := openArticleDB(t)
	path := filepath.Join(t.TempDir(), "articles.snap")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.Query(`select a from a in Articles where a contains "SGML"`)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*object.Set).Len() != 1 {
		t.Errorf("snapshot query = %s", got)
	}
	// A snapshot is an ordinary database: it validates and loads further
	// documents like the one it was saved from.
	if _, err := db2.LoadDocument("<article></article>"); err == nil {
		t.Error("snapshot must validate documents against its DTD")
	}
	if _, err := db2.LoadDocumentFile("testdata/article.sgml"); err != nil {
		t.Errorf("load on snapshot: %v", err)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := OpenDTD("not a dtd"); err == nil {
		t.Error("bad DTD accepted")
	}
	if _, err := OpenDTDFile("testdata/missing.dtd"); err == nil {
		t.Error("missing file accepted")
	}
	db := openArticleDB(t)
	if _, err := db.LoadDocument("<bogus>x</bogus>"); err != nil {
		// expected: invalid document
	} else {
		t.Error("invalid document accepted")
	}
	if err := db.Name("ghost", object.OID(9999)); err == nil {
		t.Error("naming an unknown object must fail")
	}
	if _, err := db.LoadDocumentFile("testdata/missing.sgml"); err == nil {
		t.Error("missing document file accepted")
	}
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "none")); err == nil {
		t.Error("missing snapshot accepted")
	}
}

func TestFacadeExport(t *testing.T) {
	db := openArticleDB(t)
	art, _ := db.Instance().Root("my_article")
	out, err := db.Export(art.(object.OID))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, `<article status="final">`) {
		t.Errorf("export prefix = %.60s", out)
	}
	// The export loads back.
	oid2, err := db.LoadDocument(out)
	if err != nil {
		t.Fatalf("re-load of export: %v\n%s", err, out)
	}
	if db.Text(art) != db.Text(oid2) {
		t.Error("export changed document text")
	}
	// A snapshot carries the DTD mapping: it exports the same source.
	path := filepath.Join(t.TempDir(), "x.snap")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if out2, err := db2.Export(art.(object.OID)); err != nil || out2 != out {
		t.Errorf("snapshot export: err = %v, same source = %v", err, out2 == out)
	}
}

func TestFacadeQ4AcrossVersions(t *testing.T) {
	db := openArticleDB(t)
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	// A new version with an extra section.
	newSrc := strings.Replace(string(src), "<acknowl>",
		"<section><title>New Section</title><body><paragr>added text</body></section>\n<acknowl>", 1)
	oid, err := db.LoadDocument(newSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_new_article", oid); err != nil {
		t.Fatal(err)
	}
	diff, err := db.Query(`my_new_article PATH_p - my_article PATH_p`)
	if err != nil {
		t.Fatal(err)
	}
	if diff.(*object.Set).Len() == 0 {
		t.Error("Q4 difference must be non-empty")
	}
	rows, err := db.QueryRows(`select t from my_new_article PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() < 4 {
		t.Errorf("rows = %d", rows.Len())
	}
}

// TestLoadDocumentsEmptyBatch asserts the empty (and nil) batch is a
// cheap no-op: (nil, nil) back, no snapshot published, epoch unchanged.
func TestLoadDocumentsEmptyBatch(t *testing.T) {
	db := openArticleDB(t)
	epoch := db.Epoch()
	for _, batch := range [][]string{nil, {}} {
		oids, err := db.LoadDocuments(batch)
		if err != nil {
			t.Fatalf("LoadDocuments(%v): %v", batch, err)
		}
		if oids != nil {
			t.Errorf("LoadDocuments(%v) = %v, want nil", batch, oids)
		}
	}
	if got := db.Epoch(); got != epoch {
		t.Errorf("epoch after empty batches = %d, want %d (no publication)", got, epoch)
	}
}
