package store

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the snapshot reader: it must return an
// error or an instance, never panic or allocate beyond what the input
// holds — the seeds include snapshots naming a huge oid, which must not
// get a table sized to match — and an instance it does return must save
// to a snapshot that loads back to the same bytes.
func FuzzLoad(f *testing.F) {
	in := NewInstance(cowSchema(f))
	newDoc(f, in, 1)
	newDoc(f, in, 2)
	good := string(saved(f, in))
	f.Add(good)
	for _, oid := range sparseOids {
		f.Add(strings.Replace(good, "object 2 ", oid, 1))
	}
	f.Add(snapshotMagic + "\nobject 1 1:A vn\nend\n")
	f.Fuzz(func(t *testing.T, src string) {
		got, err := Load(strings.NewReader(src))
		if err != nil {
			return
		}
		if n := strings.Count(src, "\nobject "); got.NumObjects() > n {
			t.Fatalf("%d objects from %d object lines", got.NumObjects(), n)
		}
		once := saved(t, got)
		again, err := Load(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("reload of a saved instance: %v", err)
		}
		if !bytes.Equal(saved(t, again), once) {
			t.Fatal("save → load → save is not a fixed point")
		}
	})
}
