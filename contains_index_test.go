package sgmldb

import (
	"strings"
	"testing"

	"sgmldb/internal/corpus"
	"sgmldb/internal/object"
	"sgmldb/internal/oql"
	"sgmldb/internal/text"
)

// evaluators are the three ways a query can run over a generated corpus.
var evaluators = []struct {
	name             string
	algebra, indexed bool
}{
	{"naive", false, false},
	{"algebra", true, false},
	{"algebra+index", true, true},
}

func mustSet(t *testing.T, e *oql.Engine, q string) *object.Set {
	t.Helper()
	v, err := e.Query(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	s, ok := v.(*object.Set)
	if !ok {
		t.Fatalf("%q = %s, want a set", q, v)
	}
	return s
}

// TestContainsOnNonDocumentsScans is the regression test for the defect
// the benchmark's oracle found: the text index holds whole documents, and
// the algebra's index access path answered `<var> contains w` from it for
// any oid, so a subsection or an attribute value inside a document never
// matched. An oid the index does not hold goes to the scan.
func TestContainsOnNonDocumentsScans(t *testing.T) {
	db, err := corpus.BuildArticles(corpus.Params{Docs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := nameDoc(db, "my_article", db.Loader.Documents()[0]); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		name, src string
		want      int // rows; -1: whatever the naive evaluator answers, but not none
	}{
		{"Q2 on subsections", `
select ss from a in Articles, s in a.sections, ss in s.subsectns
where ss contains "w0001"`, 8},
		{"Q5 on attribute values", `
select name(ATT_a) from my_article PATH_p.ATT_a(val)
where val contains ("Section")`, -1},
		{"whole documents", `select a from a in Articles where a contains "w0001"`, 4},
	} {
		var naive *object.Set
		for _, ev := range evaluators {
			got := mustSet(t, engineFor(db, ev.algebra, ev.indexed), q.src)
			if naive == nil {
				naive = got
				if got.Len() == 0 || (q.want >= 0 && got.Len() != q.want) {
					t.Errorf("%s, naive: %d rows, want %d", q.name, got.Len(), q.want)
				}
			}
			if !object.Equal(got, naive) {
				t.Errorf("%s, %s: %d rows, the naive evaluator answers %d", q.name, ev.name, got.Len(), naive.Len())
			}
		}
	}

	// Which path answered? An index that holds the documents under text
	// they do not have tells the two apart: a document is answered from
	// the index (all four "contain" the planted word, which no scan would
	// find), a subsection from its own text (none does).
	planted := text.NewIndex()
	for _, doc := range db.Loader.Documents() {
		planted.Add(text.DocID(doc), "plantedword")
	}
	e := engineFor(db, true, false)
	e.Index = planted
	if got := mustSet(t, e, `select a from a in Articles where a contains "plantedword"`); got.Len() != 4 {
		t.Errorf("a contains w on documents: %d rows from the index, want 4 (the index must still answer)", got.Len())
	}
	if got := mustSet(t, e, `
select ss from a in Articles, s in a.sections, ss in s.subsectns
where ss contains "plantedword"`); got.Len() != 0 {
		t.Errorf("ss contains w on subsections: %d rows, want 0 (the scan must answer)", got.Len())
	}
	plan, err := e.Plan(`select a from a in Articles where a contains "plantedword"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "index-contains") {
		t.Errorf("plan lost the index access path:\n%s", plan.Explain())
	}
}

// TestFigurePathsAnswer corrects a finding recorded against the engine:
// `a PATH_p.caption(t)` (and figure, picture) answered empty over the
// benchmark corpus because that corpus holds no figure — with the default
// three bodies per section the generator's "every fourth body is a figure"
// never fires. With four bodies there are figures, and both evaluators
// find them.
func TestFigurePathsAnswer(t *testing.T) {
	none, err := corpus.BuildArticles(corpus.Params{Docs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(none.Loader.Instance.DirectExtent("Figure")); n != 0 {
		t.Fatalf("default parameters generated %d figures; the benchmark's inputs changed", n)
	}
	db, err := corpus.BuildArticles(corpus.Params{Docs: 2, Bodies: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Loader.Instance.DirectExtent("Figure")) == 0 {
		t.Fatal("four bodies per section generated no figure")
	}
	for _, elem := range []string{"caption", "figure", "picture"} {
		q := `select t from a in Articles, a PATH_p.` + elem + `(t)`
		naive := mustSet(t, engineFor(db, false, false), q)
		if naive.Len() == 0 {
			t.Errorf("%s: no rows over a corpus with figures", q)
		}
		if got := mustSet(t, engineFor(db, true, true), q); !object.Equal(got, naive) {
			t.Errorf("%s: algebra answers %d rows, naive %d", q, got.Len(), naive.Len())
		}
	}
}
