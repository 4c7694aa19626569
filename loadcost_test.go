package sgmldb

import (
	"bytes"
	"runtime"
	"testing"

	"sgmldb/internal/corpus"
	"sgmldb/internal/wal"
)

// articleBatches generates n articles (default corpus parameters, the
// given seed) cut into batches of per.
func articleBatches(n, per int, seed int64) [][]string {
	g := corpus.NewGenerator(corpus.Params{Seed: seed})
	var out [][]string
	for i := 0; i < n; i += per {
		batch := make([]string, 0, per)
		for j := i; j < i+per && j < n; j++ {
			batch = append(batch, g.Article(j))
		}
		out = append(out, batch)
	}
	return out
}

// openWithArticles opens an article database (in memory unless opts say
// otherwise) holding the first docs articles of the seed-1 corpus, loaded
// 64 at a time.
func openWithArticles(tb testing.TB, docs int, opts ...Option) *Database {
	tb.Helper()
	db, err := OpenDTD(corpus.ArticleDTD, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	for _, batch := range articleBatches(docs, 64, 1) {
		if _, err := db.LoadDocuments(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// allocatedBy reports the bytes f allocates (runtime.MemStats.TotalAlloc,
// which only grows). Nothing else may be running in the process: the
// callers use in-memory databases and followers, which have no background
// goroutines.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadCostIndependentOfCorpus pins the write path's cost model: a load
// costs what the batch costs, not what the database holds. The same eight
// 4-article batches go into databases holding 200 and 3,200 articles, and
// the bytes allocated per LoadDocuments may differ by half at most. Bytes
// allocated, not time: the count repeats from run to run. What is left of
// the corpus in it is named in DESIGN.md §5 — the plural root's list (16
// bytes per document per load) and the page directories.
func TestLoadCostIndependentOfCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 3,400 articles")
	}
	// Articles generated under another seed: new text, and article numbers
	// the databases have seen, as a steady state would.
	batches := articleBatches(32, 4, 2)
	perLoad := func(docs int) uint64 {
		db := openWithArticles(t, docs)
		n := allocatedBy(func() {
			for _, batch := range batches {
				if _, err := db.LoadDocuments(batch); err != nil {
					t.Fatal(err)
				}
			}
		})
		return n / uint64(len(batches))
	}
	small, large := perLoad(200), perLoad(3200)
	t.Logf("bytes allocated per 4-article LoadDocuments: %d at 200 articles, %d at 3,200 (%.2f×)",
		small, large, float64(large)/float64(small))
	if 2*large > 3*small {
		t.Errorf("a load into 3,200 articles allocates %d bytes, into 200 articles %d: more than 1.5×", large, small)
	}
}

// TestFirstApplyAfterBootstrapCostsLikeTheTenth is the regression test for
// the recovery tax: a decoded index held exact-capacity posting lists, so
// the first record a follower (or a recovery) applied after adopting a
// checkpoint reallocated every list it touched. The first ApplyRecord
// after ApplyCheckpoint may allocate a quarter more than the tenth, no
// more.
func TestFirstApplyAfterBootstrapCostsLikeTheTenth(t *testing.T) {
	primary := openWithArticles(t, 400)
	primary.loadMu.Lock()
	ck := primary.captureCheckpoint()
	primary.loadMu.Unlock()
	ck.Seq = 1 // an in-memory database has no log to number it
	var buf bytes.Buffer
	if err := wal.EncodeCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	decoded, err := wal.DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenFollower(corpus.ArticleDTD)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyCheckpoint(decoded); err != nil {
		t.Fatal(err)
	}
	var allocated []uint64
	for i, batch := range articleBatches(40, 4, 2) {
		rec := wal.Record{Seq: uint64(i) + 2, Kind: wal.KindLoad, Docs: batch}
		allocated = append(allocated, allocatedBy(func() {
			if err := follower.ApplyRecord(rec); err != nil {
				t.Fatal(err)
			}
		}))
	}
	first, tenth := allocated[0], allocated[9]
	t.Logf("bytes allocated by ApplyRecord after ApplyCheckpoint: first %d, tenth %d (%.2f×)",
		first, tenth, float64(first)/float64(tenth))
	if 4*first > 5*tenth {
		t.Errorf("the first ApplyRecord after a bootstrap allocates %d bytes, the tenth %d: more than 1.25×", first, tenth)
	}
}
