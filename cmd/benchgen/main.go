// Command benchgen generates a deterministic synthetic SGML corpus (the
// benchmark workload) and either writes the documents to a directory or
// loads them and writes a database snapshot.
//
// Usage:
//
//	benchgen -docs 100 -sections 8 -out corpus/       # write .sgml files
//	benchgen -docs 100 -snap corpus.snap              # load and snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sgmldb"
	"sgmldb/internal/corpus"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run() error {
	docs := flag.Int("docs", 10, "number of articles")
	sections := flag.Int("sections", 5, "sections per article")
	words := flag.Int("words", 30, "words per paragraph")
	vocab := flag.Int("vocab", 1000, "vocabulary size")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "directory for generated .sgml files")
	snap := flag.String("snap", "", "load the corpus and write this snapshot")
	flag.Parse()
	p := corpus.Params{Docs: *docs, Sections: *sections, Words: *words,
		Vocabulary: *vocab, Seed: *seed}
	g := corpus.NewGenerator(p)
	srcs := make([]string, *docs)
	rawBytes := 0
	for i := range srcs {
		srcs[i] = g.Article(i)
		rawBytes += len(srcs[i])
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*out, "article.dtd"),
			[]byte(corpus.ArticleDTD+"\n"), 0o644); err != nil {
			return err
		}
		for i, src := range srcs {
			name := filepath.Join(*out, fmt.Sprintf("article%04d.sgml", i))
			if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d documents to %s\n", *docs, *out)
	}
	if *snap != "" {
		db, err := sgmldb.OpenDTD(corpus.ArticleDTD)
		if err != nil {
			return err
		}
		if _, err := db.LoadDocuments(srcs); err != nil {
			return err
		}
		st := db.Stats()
		fmt.Printf("corpus: %d documents, %d objects, %d raw SGML bytes, %d value bytes (overhead ×%.2f)\n",
			*docs, st.Objects, rawBytes, st.ValueBytes,
			float64(st.ValueBytes)/float64(rawBytes))
		if err := db.Save(*snap); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s\n", *snap)
	}
	if *out == "" && *snap == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -snap")
	}
	return nil
}
