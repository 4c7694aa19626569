package text

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func encoded(t *testing.T, ix *Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ix.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestVersionIsolation drives a seeded random history through the shared
// index storage — clones, Adds of new documents, re-Adds of old ones,
// discarded clones (rolled-back loads) and second clones of one parent —
// while readers encode and query the retained versions (run under -race).
// Every retained version still encodes to the bytes recorded when it was
// published, and equals a one-shot build of its surviving history in an
// index that never saw a Clone.
func TestVersionIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 299)
	text := func(doc DocID) string {
		words := make([]string, 12+rng.Intn(30))
		for i := range words {
			words[i] = fmt.Sprintf("w%03d", zipf.Uint64())
		}
		return fmt.Sprintf("doc%d %s", doc, strings.Join(words, " "))
	}
	type add struct {
		doc  DocID
		text string
	}
	type version struct {
		ix   *Index
		adds []add
		want []byte
	}
	var (
		mu       sync.Mutex
		retained []version
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				vs := slices.Clone(retained)
				mu.Unlock()
				for _, v := range vs {
					var b bytes.Buffer
					if err := v.ix.Encode(&b); err != nil || !bytes.Equal(b.Bytes(), v.want) {
						t.Errorf("a retained version changed under a reader (err %v)", err)
						return
					}
					if got := len(v.ix.Eval(NotExpr{E: MustWord("w000")})) + len(v.ix.Lookup("w000")); got != v.ix.Size() {
						t.Errorf("w000 and its complement cover %d of %d documents", got, v.ix.Size())
						return
					}
				}
			}
		}()
	}

	head := version{ix: NewIndex()}
	nextDoc := DocID(1)
	for step := 0; step < 120; step++ {
		parent := head
		fork := len(retained) > 0 && rng.Intn(5) == 0
		if fork {
			parent = retained[rng.Intn(len(retained))]
		}
		ix := parent.ix.Clone()
		adds := slices.Clone(parent.adds)
		for k := rng.Intn(4); k >= 0; k-- {
			doc := nextDoc
			if len(adds) > 0 && rng.Intn(8) == 0 {
				doc = adds[rng.Intn(len(adds))].doc // re-Add
			} else {
				nextDoc++
			}
			a := add{doc: doc, text: text(doc)}
			ix.Add(a.doc, a.text)
			adds = append(adds, a)
		}
		if rng.Intn(4) == 0 {
			// Abandoned, as a rolled-back load: the documents it numbered are
			// numbered again by whatever comes next.
			nextDoc = 1
			for _, a := range head.adds {
				nextDoc = max(nextDoc, a.doc+1)
			}
			continue
		}
		v := version{ix: ix, adds: adds, want: encoded(t, ix)}
		mu.Lock()
		retained = append(retained, v)
		mu.Unlock()
		if !fork {
			head = v
		}
	}
	close(stop)
	wg.Wait()

	for i, v := range retained {
		if !bytes.Equal(encoded(t, v.ix), v.want) {
			t.Errorf("retained version %d no longer encodes to its published bytes", i)
		}
		oneShot := NewIndex()
		for _, a := range v.adds {
			oneShot.Add(a.doc, a.text)
		}
		if !bytes.Equal(encoded(t, oneShot), v.want) {
			t.Errorf("retained version %d differs from a one-shot build of its history", i)
		}
	}
	if head.ix.Size() < 100 {
		t.Fatalf("history too short: %d documents at the head", head.ix.Size())
	}
}

// TestSingleLineageAppendsInPlace is the performance contract behind
// Clone: along one line of succession an Add appends to the posting
// storage the parent already holds, so the clone's list for a common word
// starts at the same address as the parent's.
func TestSingleLineageAppendsInPlace(t *testing.T) {
	ix := NewIndex()
	for d := DocID(1); d <= 5; d++ {
		ix.Add(d, "common words only")
	}
	moved := 0
	for d := DocID(6); d <= 200; d++ {
		c := ix.Clone()
		c.Add(d, "common words again")
		before, after := ix.list("common"), c.list("common")
		if len(after) != len(before)+1 {
			t.Fatalf("doc %d: list grew from %d to %d", d, len(before), len(after))
		}
		if &before[0] != &after[0] {
			moved++
		}
		ix = c
	}
	// Growth moves a list a logarithmic number of times, not once per Add.
	if moved > 10 {
		t.Errorf("the list of a common word moved %d times in 195 single-lineage Adds", moved)
	}
}
