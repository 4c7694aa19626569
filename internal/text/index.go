package text

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"sgmldb/internal/cow"
	"sgmldb/internal/faultpoint"
)

// Fault-injection sites on the index-rebuild path the facade runs after
// staging a load. Clone and Add return no error, so an injected failure
// escalates to a panic — deliberately: these sites exist to prove that a
// panic between "documents staged" and "snapshot published" is contained
// at the facade boundary and rolled back, not that an error is politely
// forwarded.
var (
	fpClone = faultpoint.New("text/index-clone")
	fpAdd   = faultpoint.New("text/index-add")
)

// DocID identifies an indexed document (the caller typically uses object
// identifiers).
type DocID uint64

// posting is the occurrence list of one word in one document.
type posting struct {
	doc       DocID
	positions []int // word positions, ascending
}

// lexicon numbers the words of one lineage of index versions: each word
// gets the next number the first time any version of the lineage indexes
// it, and keeps it. Numbers are dense, so a version holds its posting
// lists in a table indexed by them; a word a version has not indexed —
// one a sibling or an abandoned clone introduced — has an empty list
// there, or a number past the end of the table.
type lexicon struct {
	mu    sync.RWMutex
	ids   map[string]int
	words []string // by number
}

// lookup returns the word's number.
func (l *lexicon) lookup(w string) (int, bool) {
	l.mu.RLock()
	id, ok := l.ids[w]
	l.mu.RUnlock()
	return id, ok
}

// number returns the word's number, assigning the next one to a new word.
func (l *lexicon) number(w string) int {
	if id, ok := l.lookup(w); ok {
		return id
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.ids[w]
	if !ok {
		// A token may be a substring of its document's text; the lexicon
		// outlives the document's indexing and must not keep the text.
		w = strings.Clone(w)
		id = len(l.words)
		l.ids[w] = id
		l.words = append(l.words, w)
	}
	return id
}

// docTable is the document list of one lineage of index versions: the
// indexed documents in insertion order, and each document's place in that
// order. A version is the table plus a length (Index.nDocs): it contains
// order[:nDocs] and nothing else, and those entries never change, so a
// clone shares its parent's table and the next Add appends to it. The
// table is a lineage's, not a version's, only while len(order) equals the
// length of the one version that is being added to; an Add that finds it
// longer — a sibling clone appended first — moves to a table of its own.
type docTable struct {
	mu    sync.RWMutex
	order []DocID
	at    map[DocID]int // doc -> index in order
}

// Index is a positional inverted index: the full-text indexing mechanism
// whose integration Section 4.1 and Section 6 call for. It answers
// contains expressions (boolean combinations of patterns) and near
// predicates without scanning document text.
//
// An Index is safe for concurrent use: Add takes the index's lock for
// writing, every reader (Lookup, Eval, Docs, …) for reading, one word at a
// time. Each atom of an Eval observes its words atomically; atomicity
// across a whole expression against a concurrent Add is provided by the
// facade's copy-on-write discipline instead — a published index is never
// Added to again.
//
// Clone supports exactly that discipline, at a cost that does not depend
// on how many documents are indexed. A clone shares everything with its
// parent: the lexicon and the document list belong to the lineage; the
// table of posting lists is copied a page at a time, as Adds write to it
// (cow.Table); and the posting lists and the document list are
// append-only sequences of which a version reads only its own prefix. An
// Add appends past every prefix that exists, so the writer extends the
// shared storage in place and a query pinned to an older version never
// sees it move (cow.Tail). That holds for one line of succession — clone,
// add, publish, clone — which is what the facade's writer lock
// guarantees; the storage enforces it rather than trusting it. A second
// clone of one parent, an Add after a clone that was abandoned, and an Add
// into the parent itself all find the tail already claimed and copy the
// lists they touch; re-Adding an indexed document rewrites, in new
// storage, the lists it appeared in.
type Index struct {
	// mu guards every field below. Lock order: mu, then docs.mu or lex.mu.
	mu  sync.RWMutex
	lex *lexicon
	// lists holds the posting list of each word by lexicon number, one
	// posting per document in Add order; nWords counts the non-empty ones.
	lists  cow.Table[cow.Tail[posting]]
	nWords int
	docs   *docTable
	nDocs  int
	// sortedWords caches the vocabulary for pattern scans, built on demand
	// (sortMu lets readers holding only mu.RLock build it; lock order: mu
	// before sortMu) and dropped when a word enters or leaves the
	// vocabulary.
	sortMu      sync.Mutex
	sortedWords []string
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		lex:  &lexicon{ids: make(map[string]int)},
		docs: &docTable{at: make(map[DocID]int)},
	}
}

// Clone returns an independently mutable copy of the index that shares
// the original's storage (see Index): the writer clones, Adds the new
// documents, and atomically publishes the clone, while readers pinned to
// the original keep a stable view. The cost is one pointer per cow.PageSize
// distinct words.
func (ix *Index) Clone() *Index {
	if err := fpClone.Hit(); err != nil {
		//lint:allow panic injected faults escalate to panics here (no error return); contained at the facade boundary
		panic(err)
	}
	// Cloning the table marks the receiver's pages shared: a write.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return &Index{
		lex:    ix.lex,
		lists:  ix.lists.Clone(),
		nWords: ix.nWords,
		docs:   ix.docs,
		nDocs:  ix.nDocs,
	}
}

// Has reports whether doc is an indexed document, as opposed to an
// identifier the index has never been given. Only for indexed documents
// does absence from an Eval result mean the text does not match.
func (ix *Index) Has(doc DocID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.has(doc)
}

// has is Has for a caller holding mu.
func (ix *Index) has(doc DocID) bool {
	t := ix.docs
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.at[doc]
	return ok && i < ix.nDocs && t.order[i] == doc
}

// appendDoc records a new document at the end of the order. The caller
// holds mu for writing.
func (ix *Index) appendDoc(doc DocID) {
	t := ix.docs
	t.mu.Lock()
	if len(t.order) != ix.nDocs {
		// Another version of this lineage has appended already: leave the
		// table to it and continue on a copy of this version's part.
		t.mu.Unlock()
		t = &docTable{order: ix.docOrder(), at: make(map[DocID]int, ix.nDocs+1)}
		for i, d := range t.order {
			t.at[d] = i
		}
		ix.docs = t
		t.mu.Lock()
	}
	t.at[doc] = len(t.order)
	t.order = append(t.order, doc)
	t.mu.Unlock()
	ix.nDocs++
}

// docOrder returns a copy of this version's documents in insertion
// order. The caller holds mu.
func (ix *Index) docOrder() []DocID {
	t := ix.docs
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]DocID(nil), t.order[:ix.nDocs]...)
}

// list returns the word's posting list in this version. The caller holds
// mu.
func (ix *Index) list(word string) []posting {
	id, ok := ix.lex.lookup(word)
	if !ok || id >= ix.lists.Len() {
		return nil
	}
	return ix.lists.Get(id).View()
}

// Add indexes the text of one document. Re-Adding a document replaces its
// postings wholesale: the old positions are retracted first, so positions
// stay ascending and phrase/near evaluation (which binary-searches
// position lists) stays correct across re-indexing. Adds to one index are
// serialised; re-Adding a document costs a pass over the whole index (see
// retract).
func (ix *Index) Add(doc DocID, text string) {
	if err := fpAdd.Hit(); err != nil {
		//lint:allow panic injected faults escalate to panics here (no error return); contained at the facade boundary
		panic(err)
	}
	// Group the tokens by word, words in order of first occurrence. All of
	// the document's position lists are cut from one array: they live and
	// die together.
	toks := Tokenize(text)
	type occurrences struct {
		word      string
		n         int
		positions []int
	}
	var words []occurrences
	wordAt := make(map[string]int)
	for _, t := range toks {
		i, ok := wordAt[t.Word]
		if !ok {
			i = len(words)
			wordAt[t.Word] = i
			words = append(words, occurrences{word: t.Word})
		}
		words[i].n++
	}
	positions := make([]int, len(toks))
	for i := range words {
		w := &words[i]
		w.positions, positions = positions[:0:w.n], positions[w.n:]
	}
	for _, t := range toks {
		w := &words[wordAt[t.Word]]
		w.positions = append(w.positions, t.Pos)
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.has(doc) {
		ix.retract(doc)
	} else {
		ix.appendDoc(doc)
	}
	for _, w := range words {
		id := ix.lex.number(w.word)
		for ix.lists.Len() <= id {
			ix.lists.Append(cow.Tail[posting]{})
		}
		pl := ix.lists.Get(id)
		if pl.Len() == 0 {
			ix.nWords++
			ix.sortedWords = nil
		}
		ix.lists.Set(id, pl.Append(posting{doc: doc, positions: w.positions}))
	}
}

// retract removes a document's postings ahead of re-indexing: every list
// the document appears in is rebuilt without it, in storage of its own,
// because the old one is shared with the versions that still hold the
// document's old text. Nothing records which words a document has, so
// this reads the whole index; the write path never re-Adds. The caller
// holds mu for writing and re-Adds the document immediately, so the
// document list is left alone.
func (ix *Index) retract(doc DocID) {
	for id := 0; id < ix.lists.Len(); id++ {
		ps := ix.lists.Get(id).View()
		at := slices.IndexFunc(ps, func(p posting) bool { return p.doc == doc })
		if at < 0 {
			continue
		}
		if len(ps) == 1 {
			ix.nWords--
			ix.sortedWords = nil
		}
		// Capacity for the posting the re-Add is about to append.
		kept := make([]posting, 0, len(ps))
		ix.lists.Set(id, cow.TailOf(append(append(kept, ps[:at]...), ps[at+1:]...)))
	}
}

// Size reports the number of indexed documents.
func (ix *Index) Size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nDocs
}

// VocabularySize reports the number of distinct words.
func (ix *Index) VocabularySize() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nWords
}

// Docs returns all indexed documents in insertion order.
func (ix *Index) Docs() []DocID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docOrder()
}

// Lookup returns the documents containing the word, ascending.
func (ix *Index) Lookup(word string) []DocID {
	ix.mu.RLock()
	ps := ix.list(word)
	out := make([]DocID, len(ps))
	for i, p := range ps {
		out[i] = p.doc
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// matchingWords scans the vocabulary with a pattern, in sorted order. Bare
// literals are looked up and skip the scan.
func (ix *Index) matchingWords(p *Pattern) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if lit, ok := p.Literal(); ok {
		if len(ix.list(lit)) > 0 {
			return []string{lit}
		}
		return nil
	}
	var out []string
	for _, w := range ix.sorted() {
		if p.Match(w) {
			out = append(out, w)
		}
	}
	return out
}

// sorted returns the sorted vocabulary — the words with a posting in this
// version — (re)building the cache under its own mutex so that concurrent
// readers, who hold only mu.RLock, do not race on it. Mutators drop it
// under mu.Lock, which excludes all readers, so the cache a reader builds
// here is consistent with the lists it scans. The caller holds mu; the
// result must not be modified.
func (ix *Index) sorted() []string {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if ix.sortedWords == nil {
		words := make([]string, 0, ix.nWords)
		ix.lex.mu.RLock()
		for id := 0; id < ix.lists.Len(); id++ {
			if ix.lists.Get(id).Len() > 0 {
				words = append(words, ix.lex.words[id])
			}
		}
		ix.lex.mu.RUnlock()
		sort.Strings(words)
		ix.sortedWords = words
	}
	return ix.sortedWords
}

// Eval answers a contains expression from the index: the set of documents
// whose text satisfies expr, ascending by DocID.
//
// Pattern atoms are evaluated at word granularity (a pattern matches a
// document if it matches one of the document's words), which is the IRS
// convention the index supports; multi-word literal atoms are evaluated as
// a phrase using positions. Negation complements against the set of all
// indexed documents.
func (ix *Index) Eval(expr Expr) []DocID {
	set := ix.eval(expr)
	out := make([]DocID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (ix *Index) eval(expr Expr) map[DocID]bool {
	switch e := expr.(type) {
	case MatchExpr:
		if lit, ok := e.Pattern.Literal(); ok {
			words := Words(lit)
			if len(words) > 1 {
				return ix.phrase(words)
			}
			if len(words) == 1 {
				return ix.docsWith(words[0])
			}
			return map[DocID]bool{}
		}
		out := map[DocID]bool{}
		for _, w := range ix.matchingWords(e.Pattern) {
			for d := range ix.docsWith(w) {
				out[d] = true
			}
		}
		return out
	case AndExpr:
		l := ix.eval(e.L)
		r := ix.eval(e.R)
		out := map[DocID]bool{}
		for d := range l {
			if r[d] {
				out[d] = true
			}
		}
		return out
	case OrExpr:
		out := ix.eval(e.L)
		for d := range ix.eval(e.R) {
			out[d] = true
		}
		return out
	case NotExpr:
		inner := ix.eval(e.E)
		out := map[DocID]bool{}
		for _, d := range ix.Docs() {
			if !inner[d] {
				out[d] = true
			}
		}
		return out
	case NearExpr:
		return ix.near(e)
	default:
		return map[DocID]bool{}
	}
}

// docsWith returns the set of documents containing the word.
func (ix *Index) docsWith(word string) map[DocID]bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := map[DocID]bool{}
	for _, p := range ix.list(word) {
		out[p.doc] = true
	}
	return out
}

// fetchOcc copies one word's occurrences out of the index: doc ->
// ascending positions (a copy, because occurrencesOf filters the position
// lists in place).
func (ix *Index) fetchOcc(word string) map[DocID][]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ps := ix.list(word)
	out := make(map[DocID][]int, len(ps))
	for _, p := range ps {
		out[p.doc] = append([]int(nil), p.positions...)
	}
	return out
}

// phrase finds documents containing the words consecutively.
func (ix *Index) phrase(words []string) map[DocID]bool {
	occ := ix.occurrencesOf(words)
	out := make(map[DocID]bool, len(occ))
	for d := range occ {
		out[d] = true
	}
	return out
}

// near answers a word-distance predicate from positions. Either operand
// may be a multi-word phrase: its occurrences are the start positions at
// which the words appear consecutively, and the distance is the word gap
// between the end of one occurrence and the start of the other.
func (ix *Index) near(e NearExpr) map[DocID]bool {
	out := map[DocID]bool{}
	aw, bw := Words(e.A), Words(e.B)
	if len(aw) == 0 || len(bw) == 0 {
		return out
	}
	a := ix.occurrencesOf(aw)
	b := ix.occurrencesOf(bw)
	for doc, aPos := range a {
		bPos, ok := b[doc]
		if !ok {
			continue
		}
		if nearSpans(aPos, bPos, len(aw), len(bw), e.Dist) {
			out[doc] = true
		}
	}
	return out
}

// occurrencesOf maps each document to the ascending start positions at
// which the words occur consecutively. A single word reduces to its
// position list; a phrase intersects word k's positions shifted by k.
func (ix *Index) occurrencesOf(words []string) map[DocID][]int {
	base := ix.fetchOcc(words[0])
	for k := 1; k < len(words); k++ {
		next := ix.fetchOcc(words[k])
		for doc, starts := range base {
			np := next[doc]
			keep := starts[:0]
			for _, p := range starts {
				i := sort.SearchInts(np, p+k)
				if i < len(np) && np[i] == p+k {
					keep = append(keep, p)
				}
			}
			if len(keep) == 0 {
				delete(base, doc)
			} else {
				base[doc] = keep
			}
		}
	}
	return base
}

// nearSpans reports whether some a-occurrence (la words long) and some
// b-occurrence (lb words long) are separated by at most dist intervening
// words. Overlapping occurrences do not match, which for single words
// coincides with NearExpr.Eval's |pa−pb|−1 ≤ dist, pa ≠ pb.
func nearSpans(as, bs []int, la, lb, dist int) bool {
	for _, sa := range as {
		for _, sb := range bs {
			var gap int
			if sa < sb {
				gap = sb - (sa + la)
			} else {
				gap = sa - (sb + lb)
			}
			if gap >= 0 && gap <= dist {
				return true
			}
		}
	}
	return false
}
