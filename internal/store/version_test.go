package store

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sgmldb/internal/cow"
	"sgmldb/internal/object"
)

// versionOp is one mutation of a random history; apply replays it on any
// instance, so a version's contents can be rebuilt in one shot.
type versionOp struct {
	kind string // "new", "set", "root"
	oid  object.OID
	n    int
}

func (op versionOp) apply(t *testing.T, in *Instance) {
	t.Helper()
	val := object.NewTuple(object.Field{Name: "n", Value: object.Int(op.n)})
	var err error
	switch op.kind {
	case "new":
		_, err = in.NewObject("Doc", val)
	case "set":
		err = in.SetValue(op.oid, val)
	case "root":
		err = in.SetRoot("Docs", object.NewList(op.oid))
	}
	if err != nil {
		t.Fatal(err)
	}
}

func saved(t testing.TB, in *Instance) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Save(&b, in); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestVersionIsolation drives a seeded random history through the
// copy-on-write structure — Begin, new objects, SetValue on older oids,
// SetRoot, discards (rolled-back loads) and second versions begun from one
// parent — while readers save the retained versions (run under -race).
// Every retained version still saves to the bytes recorded when it was
// published, and equals a one-shot build of its surviving history on an
// instance that never saw a Begin.
func TestVersionIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	schema := cowSchema(t)
	type version struct {
		inst *Instance
		ops  []versionOp
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
					if err := Save(&b, v.inst); err != nil || !bytes.Equal(b.Bytes(), v.want) {
						t.Errorf("a retained version changed under a reader (err %v)", err)
						return
					}
				}
			}
		}()
	}

	head := version{inst: NewInstance(schema)}
	for step := 0; step < 150; step++ {
		parent := head
		fork := len(retained) > 0 && rng.Intn(5) == 0
		if fork {
			parent = retained[rng.Intn(len(retained))]
		}
		staged := parent.inst.Begin()
		ops := slices.Clone(parent.ops)
		for k := rng.Intn(30); k >= 0; k-- {
			op := versionOp{kind: "new", n: rng.Int()}
			if n := staged.NumObjects(); n > 0 {
				switch rng.Intn(4) {
				case 0:
					op = versionOp{kind: "set", oid: object.OID(1 + rng.Intn(n)), n: rng.Int()}
				case 1:
					op = versionOp{kind: "root", oid: object.OID(1 + rng.Intn(n))}
				}
			}
			op.apply(t, staged)
			ops = append(ops, op)
		}
		if rng.Intn(4) == 0 {
			staged.Discard()
			continue
		}
		v := version{inst: staged, ops: ops, want: saved(t, staged)}
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
		if !bytes.Equal(saved(t, v.inst), v.want) {
			t.Errorf("retained version %d no longer saves to its published bytes", i)
		}
		oneShot := NewInstance(schema)
		for _, op := range v.ops {
			op.apply(t, oneShot)
		}
		if !bytes.Equal(saved(t, oneShot), v.want) {
			t.Errorf("retained version %d differs from a one-shot build of its history", i)
		}
	}
	if head.inst.NumObjects() <= 2*cow.PageSize {
		t.Fatalf("history too short to cross pages: %d objects", head.inst.NumObjects())
	}
}

// sparseOids replace the second object's "object 2 " in a crafted
// snapshot.
var sparseOids = []string{"object 18446744073709551615 ", "object 4294967296 ", "object 3 ", "object 1 ", "object 0 "}

// TestLoadRefusesSparseOids: the oid table is indexed by oid, so a
// snapshot that names an oid out of sequence — a crafted file asking for
// a table as large as the oid it mentions — is refused at that line.
func TestLoadRefusesSparseOids(t *testing.T) {
	in := NewInstance(cowSchema(t))
	newDoc(t, in, 1)
	newDoc(t, in, 2)
	good := string(saved(t, in))
	if _, err := Load(bytes.NewReader([]byte(good))); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, oid := range sparseOids {
		crafted := bytes.Replace([]byte(good), []byte("object 2 "), []byte(oid), 1)
		if _, err := Load(bytes.NewReader(crafted)); err == nil {
			t.Errorf("Load accepted a snapshot whose second object is %q", oid)
		}
	}
}
