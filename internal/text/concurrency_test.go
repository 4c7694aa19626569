package text

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestAddLookupConcurrent exercises the "safe for concurrent use"
// contract: any number of Lookup/Eval/Docs readers run while a writer
// re-indexes documents. Run under -race this pins the locking discipline.
func TestAddLookupConcurrent(t *testing.T) {
	ix := NewIndex()
	for d := 0; d < 8; d++ {
		ix.Add(DocID(d), fmt.Sprintf("alpha beta gamma doc%d delta", d))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			words := []string{"alpha", "beta", "gamma", "delta", "doc3"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := words[(i+r)%len(words)]
				if len(ix.Lookup(w)) == 0 {
					t.Errorf("Lookup(%q) went empty mid-run", w)
					return
				}
				ix.Eval(MustWord("alpha"))
				ix.Docs()
				ix.VocabularySize()
			}
		}(r)
	}
	for i := 0; i < 50; i++ {
		ix.Add(DocID(100+i%4), fmt.Sprintf("epsilon zeta run%d alpha", i))
	}
	close(stop)
	wg.Wait()
}

// TestCloneVersioning re-checks the copy-on-write contract over a
// vocabulary wide enough to matter: Adds into a clone never disturb the
// original, and vice versa.
func TestCloneVersioning(t *testing.T) {
	ix := NewIndex()
	for d := 0; d < 20; d++ {
		ix.Add(DocID(d), fmt.Sprintf("shared word%d tail", d))
	}
	before := ix.Eval(MustWord("shared"))
	c := ix.Clone()
	c.Add(DocID(99), "shared fresh")
	c.Add(DocID(3), "rewritten only") // re-Add retracts doc 3's old words in the clone
	if got := ix.Eval(MustWord("shared")); !reflect.DeepEqual(got, before) {
		t.Errorf("original 'shared' docs changed after clone Adds: %v != %v", got, before)
	}
	if got := ix.Lookup("word3"); len(got) != 1 || got[0] != 3 {
		t.Errorf("original lost doc 3's postings: %v", got)
	}
	if got := c.Lookup("word3"); len(got) != 0 {
		t.Errorf("clone kept retracted word3: %v", got)
	}
	if got := c.Lookup("fresh"); len(got) != 1 || got[0] != 99 {
		t.Errorf("clone missing its own Add: %v", got)
	}
	// Writing back into the original after Clone must not leak into the
	// clone either (the clone has claimed the shared tails; the original
	// copies).
	ix.Add(DocID(77), "shared original only")
	if got := c.Lookup("original"); len(got) != 0 {
		t.Errorf("original's post-clone Add leaked into clone: %v", got)
	}
}

// TestIndexCodecRoundTrip encodes an index and decodes it back, checking
// documents, vocabulary, phrase and near evaluation — the checkpoint
// path's fidelity requirement.
func TestIndexCodecRoundTrip(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "structured documents to novel query facilities")
	ix.Add(2, "novel query facilities for structured text")
	ix.Add(7, "an unrelated third document")
	ix.Add(2, "re-added second document with novel query phrasing") // exercise retract
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailer survives\n")
	br := bufio.NewReader(&buf)
	got, err := DecodeIndex(br)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Docs(), ix.Docs()) {
		t.Errorf("docs = %v, want %v", got.Docs(), ix.Docs())
	}
	if got.VocabularySize() != ix.VocabularySize() {
		t.Errorf("vocab = %d, want %d", got.VocabularySize(), ix.VocabularySize())
	}
	for _, expr := range []Expr{
		MustWord("novel"),
		MatchExpr{Pattern: MustCompile("novel query")}, // phrase
		NearExpr{A: "novel", B: "phrasing", Dist: 2},
		NotExpr{E: MustWord("unrelated")},
	} {
		if want, have := ix.Eval(expr), got.Eval(expr); !reflect.DeepEqual(have, want) {
			t.Errorf("Eval(%v) = %v, want %v", expr, have, want)
		}
	}
	// The reader position is exactly past the index section.
	line, err := br.ReadString('\n')
	if err != nil || line != "trailer survives\n" {
		t.Errorf("reader past index section: %q, %v", line, err)
	}
	// And the decoded index is mutable: re-Add works.
	got.Add(2, "fully new content")
	if ids := got.Lookup("structured"); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("retract after decode: structured in %v, want [1]", ids)
	}
}

// TestIndexCodecRejectsGarbage feeds malformed sections to the decoder:
// errors, never panics, never partial silent success.
func TestIndexCodecRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not an index\n",
		"sgmldb-textindex 1\n",
		"sgmldb-textindex 1\ndocs x\n",
		"sgmldb-textindex 1\ndocs 1\nd nope\n",
		"sgmldb-textindex 1\ndocs 0\nwords 1\nw 3:abc 1 5 1 0\nend\n",        // posting for undeclared doc
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 2 0\nend\n",   // truncated positions
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 1 0 9\nend\n", // trailing data
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 1 0\nnot-end\n",
	}
	for _, src := range cases {
		if _, err := DecodeIndex(bufio.NewReader(bytes.NewReader([]byte(src)))); err == nil {
			t.Errorf("DecodeIndex(%q) succeeded, want error", src)
		}
	}
}
