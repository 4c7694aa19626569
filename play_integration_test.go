package sgmldb

// An end-to-end integration scenario on a second document type: a play
// (acts, scenes, speeches) with deep regular nesting — the "libraries,
// technical documentation" class of applications from the paper's
// introduction. Everything runs through the public facade, under both
// evaluators.

import (
	"strings"
	"testing"

	"sgmldb/internal/object"
)

const playDTD = `<!DOCTYPE play [
<!ELEMENT play - - (title, personae, act+)>
<!ELEMENT title - O (#PCDATA)>
<!ELEMENT personae - O (persona+)>
<!ELEMENT persona - O (#PCDATA)>
<!ELEMENT act - O (title, scene+)>
<!ELEMENT scene - O (title, (speech | stagedir)+)>
<!ELEMENT speech - O (speaker, line+)>
<!ELEMENT speaker - O (#PCDATA)>
<!ELEMENT line - O (#PCDATA)>
<!ELEMENT stagedir - O (#PCDATA)>
]>`

const hamletish = `<play>
<title>The Tragedy of Testing</title>
<personae>
<persona>GOPHER, a rodent of Denmark
<persona>LINTER, his faithful companion
</personae>
<act><title>Act I</title>
<scene><title>A terminal. Night.</title>
<stagedir>Enter GOPHER.
<speech><speaker>GOPHER</speaker>
<line>To test, or not to test: that is the question.
<line>Whether 'tis nobler in the heap to suffer
</speech>
<speech><speaker>LINTER</speaker>
<line>The slings and arrows of outrageous pointers.
</speech>
</scene>
<scene><title>The same. Later.</title>
<speech><speaker>GOPHER</speaker>
<line>Alas, poor segfault! I knew him well.
</speech>
</scene>
</act>
<act><title>Act II</title>
<scene><title>A code review.</title>
<speech><speaker>LINTER</speaker>
<line>Something is rotten in the state of main.
</speech>
</scene>
</act>
</play>`

func playDB(t *testing.T) *Database {
	t.Helper()
	db, err := OpenDTD(playDTD)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db.LoadDocument(hamletish)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("the_play", oid); err != nil {
		t.Fatal(err)
	}
	if errs := db.Check(); len(errs) != 0 {
		t.Fatalf("play instance invalid: %v", errs)
	}
	return db
}

func TestPlaySchemaShape(t *testing.T) {
	db := playDB(t)
	out := db.SchemaString()
	for _, want := range []string{
		"class Play public type tuple(title: Title, personae: Personae, acts: list(Act))",
		"class Scene public type tuple(title: Title, ",
		"class Speech public type tuple(speaker: Speaker, lines: list(Line))",
		// The unnamed (speech | stagedir)+ group gets the system-supplied
		// field name a1 (the paper's convention for unnamed groups).
		"a1: list((speech: Speech + stagedir: Stagedir))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("schema missing %q in:\n%s", want, out)
		}
	}
	// The mixed (speech | stagedir)+ member becomes a list of a union.
	if !strings.Contains(out, "(speech: Speech + stagedir: Stagedir)") {
		t.Errorf("scene body union missing:\n%s", out)
	}
}

func TestPlayQueries(t *testing.T) {
	db := playDB(t)
	for _, mode := range []bool{false, true} {
		db.Engine.UseAlgebra = mode

		// Every speaker, through path variables.
		speakers, err := db.Query(`select s from the_play PATH_p.speaker(s)`)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, v := range speakers.(*object.Set).Elems() {
			names[db.Text(v)] = true
		}
		if !names["GOPHER"] || !names["LINTER"] {
			t.Errorf("algebra=%v speakers = %v", mode, names)
		}

		// Speeches containing a word, IRS-style.
		speeches, err := db.Query(`
select sp
from a in the_play.acts, sc in a.scenes, sp in sc.a1
where sp contains "question"`)
		if err != nil {
			t.Fatal(err)
		}
		if speeches.(*object.Set).Len() != 1 {
			t.Errorf("algebra=%v speeches = %s", mode, speeches)
		}

		// Scenes of act I (ordered access).
		v, err := db.Query(`count(the_play.acts[0].scenes)`)
		if err != nil {
			t.Fatal(err)
		}
		if !object.Equal(v, object.Int(2)) {
			t.Errorf("algebra=%v scene count = %s", mode, v)
		}

		// All titles at any depth (play, act, scene).
		titles, err := db.Query(`select t from the_play .. title(t)`)
		if err != nil {
			t.Fatal(err)
		}
		if titles.(*object.Set).Len() != 6 {
			t.Errorf("algebra=%v titles = %s", mode, titles)
		}
	}
}

func TestPlayWhereConnectives(t *testing.T) {
	db := playDB(t)
	// Acts containing a GOPHER speech but no stage direction.
	got, err := db.Query(`
select a
from a in the_play.acts
where (exists sc in a.scenes: exists sp in sc.a1: sp.speaker contains "GOPHER")
  and not (exists sc in a.scenes: exists sd in sc.a1: name_is_stagedir(sd))`)
	// name_is_stagedir is not a function: expect an error, then do it the
	// proper way — the union marker is queryable through ATT variables.
	if err == nil {
		t.Fatal("undefined function must fail")
	}
	got, err = db.Query(`
select a
from a in the_play.acts, sc in a.scenes, sp in sc.a1
where sp.speaker contains "GOPHER"`)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*object.Set).Len() != 1 {
		t.Errorf("acts with GOPHER = %s", got)
	}
}

func TestPlayExportRoundTrip(t *testing.T) {
	db := playDB(t)
	root, _ := db.Instance().Root("the_play")
	out, err := db.Export(root.(object.OID))
	if err != nil {
		t.Fatal(err)
	}
	oid2, err := db.LoadDocument(out)
	if err != nil {
		t.Fatalf("re-load: %v\n%s", err, out)
	}
	if db.Text(root) != db.Text(oid2) {
		t.Error("export changed the play's text")
	}
	// Stage directions survive inside the union.
	if !strings.Contains(out, "<stagedir>") {
		t.Errorf("stagedir lost:\n%s", out)
	}
}

func TestPlayMarkerProjection(t *testing.T) {
	db := playDB(t)
	// Union markers are queryable: which kinds of scene content exist?
	rows, err := db.QueryRows(`select ATT_k from the_play .. a1[i].ATT_k(x)`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, b := range rows.Bindings("k") {
		kinds[b.Attr] = true
	}
	if !kinds["speech"] || !kinds["stagedir"] {
		t.Errorf("content kinds = %v", kinds)
	}
}
