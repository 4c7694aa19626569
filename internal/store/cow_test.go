package store

import (
	"bytes"
	"testing"

	"sgmldb/internal/cow"
	"sgmldb/internal/object"
)

// cowSchema builds a minimal schema for the COW tests: one class with a
// free-form tuple type and a plural root.
func cowSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddClass("Doc", object.TupleOf(object.TField{Name: "n", Type: object.IntType})); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRoot("Docs", object.ListOf(object.Class("Doc"))); err != nil {
		t.Fatal(err)
	}
	return s
}

func newDoc(t testing.TB, in *Instance, n int) object.OID {
	t.Helper()
	o, err := in.NewObject("Doc", object.NewTuple(object.Field{Name: "n", Value: object.Int(n)}))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBeginStagesWithoutTouchingBase is the atomicity core: mutations on
// a Begin layer are invisible from the base, and discarding the layer
// discards them wholesale.
func TestBeginStagesWithoutTouchingBase(t *testing.T) {
	in := NewInstance(cowSchema(t))
	d1 := newDoc(t, in, 1)
	if err := in.SetRoot("Docs", object.NewList(d1)); err != nil {
		t.Fatal(err)
	}

	staged := in.Begin()
	if staged.Epoch() != in.Epoch()+1 {
		t.Errorf("staged epoch = %d, base %d", staged.Epoch(), in.Epoch())
	}
	d2 := newDoc(t, staged, 2)
	if err := staged.SetRoot("Docs", object.NewList(d1, d2)); err != nil {
		t.Fatal(err)
	}

	// The staged layer sees both objects and the new root …
	if staged.NumObjects() != 2 {
		t.Errorf("staged NumObjects = %d", staged.NumObjects())
	}
	if v, ok := staged.Deref(d2); !ok || v == nil {
		t.Error("staged Deref(d2) failed")
	}
	if r, _ := staged.Root("Docs"); r.(*object.List).Len() != 2 {
		t.Errorf("staged root = %s", r)
	}
	if got := staged.Extent("Doc"); len(got) != 2 || got[0] != d1 || got[1] != d2 {
		t.Errorf("staged extent = %v", got)
	}

	// … while the base is untouched: d2 simply never happened.
	if in.NumObjects() != 1 {
		t.Errorf("base NumObjects = %d after staging", in.NumObjects())
	}
	if _, ok := in.Deref(d2); ok {
		t.Error("staged object leaked into base")
	}
	if r, _ := in.Root("Docs"); r.(*object.List).Len() != 1 {
		t.Errorf("base root = %s", r)
	}
	if errs := in.Check(); len(errs) != 0 {
		t.Errorf("base Check after discarded staging: %v", errs)
	}
}

// TestCOWSetValueShadowsBase checks that a staged SetValue on an old oid
// shadows rather than overwrites.
func TestCOWSetValueShadowsBase(t *testing.T) {
	in := NewInstance(cowSchema(t))
	d1 := newDoc(t, in, 1)
	staged := in.Begin()
	if err := staged.SetValue(d1, object.NewTuple(object.Field{Name: "n", Value: object.Int(99)})); err != nil {
		t.Fatal(err)
	}
	sv, _ := staged.Deref(d1)
	n, _ := sv.(*object.Tuple).Get("n")
	if n != object.Int(99) {
		t.Errorf("staged value = %s", sv)
	}
	bv, _ := in.Deref(d1)
	bn, _ := bv.(*object.Tuple).Get("n")
	if bn != object.Int(1) {
		t.Errorf("base value mutated: %s", bv)
	}
}

// TestCOWManyGenerations loads through enough Begin generations to cross
// several pages of the oid table, keeping every generation: each retained
// version still holds exactly the objects it was published with, in
// creation order, and the newest holds them all.
func TestCOWManyGenerations(t *testing.T) {
	const gens = 3*cow.PageSize + 7
	in := NewInstance(cowSchema(t))
	var oids []object.OID
	var kept []*Instance
	for i := 0; i < gens; i++ {
		staged := in.Begin()
		oids = append(oids, newDoc(t, staged, i))
		vals := make([]object.Value, len(oids))
		for j, o := range oids {
			vals[j] = o
		}
		if err := staged.SetRoot("Docs", object.NewList(vals...)); err != nil {
			t.Fatal(err)
		}
		in = staged // publish
		kept = append(kept, in)
	}
	for g, v := range kept {
		if v.NumObjects() != g+1 {
			t.Fatalf("generation %d: NumObjects = %d", g, v.NumObjects())
		}
		ext := v.Extent("Doc")
		if len(ext) != g+1 {
			t.Fatalf("generation %d: extent = %d oids", g, len(ext))
		}
		if _, ok := v.Deref(oids[g]); !ok {
			t.Fatalf("generation %d lost its own object", g)
		}
		if g+1 < gens {
			if _, ok := v.Deref(oids[g+1]); ok {
				t.Fatalf("generation %d sees the next generation's object", g)
			}
		}
	}
	for i, o := range in.Extent("Doc") {
		if o != oids[i] {
			t.Fatalf("extent[%d] = %s, want %s (creation order)", i, o, oids[i])
		}
		v, ok := in.Deref(o)
		if !ok {
			t.Fatalf("Deref(%s) lost", o)
		}
		n, _ := v.(*object.Tuple).Get("n")
		if n != object.Int(i) {
			t.Errorf("ν(%s) = %s, want n=%d", o, v, i)
		}
	}
	if errs := in.Check(); len(errs) != 0 {
		t.Errorf("Check after %d generations: %v", gens, errs)
	}
	if st := in.Stats(); st.Objects != gens || st.RootValues != 1 || st.PerClass["Doc"] != gens {
		t.Errorf("Stats = %+v", st)
	}
}

// TestCOWMethodsAcrossLayers checks μ resolution through the chain.
func TestCOWMethodsAcrossLayers(t *testing.T) {
	in := NewInstance(cowSchema(t))
	d1 := newDoc(t, in, 1)
	if err := in.BindMethod("Doc", "n2", func(inst *Instance, recv object.OID, _ []object.Value) (object.Value, error) {
		v, _ := inst.Deref(recv)
		n, _ := v.(*object.Tuple).Get("n")
		return object.Int(int(n.(object.Int)) * 2), nil
	}); err != nil {
		t.Fatal(err)
	}
	staged := in.Begin()
	if !staged.HasMethodNamed("n2") {
		t.Error("HasMethodNamed must see base-layer methods")
	}
	got, err := staged.Invoke(d1, "n2")
	if err != nil {
		t.Fatal(err)
	}
	if got != object.Int(2) {
		t.Errorf("Invoke = %s", got)
	}
}

// TestSchemaCloneIsolatesRoots checks that declaring a root on a cloned
// schema leaves the original untouched and moves only the clone's
// version.
func TestSchemaCloneIsolatesRoots(t *testing.T) {
	s := cowSchema(t)
	v0 := s.Version()
	c := s.Clone()
	if c.Version() != v0 {
		t.Errorf("clone version = %d, want %d", c.Version(), v0)
	}
	if err := c.AddRoot("extra", object.Class("Doc")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RootType("extra"); ok {
		t.Error("AddRoot on clone leaked into original")
	}
	if _, ok := c.RootType("extra"); !ok {
		t.Error("clone missing its own root")
	}
	if s.Version() != v0 {
		t.Errorf("original version moved to %d", s.Version())
	}
	if c.Version() != v0+1 {
		t.Errorf("clone version = %d, want %d", c.Version(), v0+1)
	}
	// The hierarchy is shared: both see the classes.
	if !c.Hierarchy().Has("Doc") {
		t.Error("clone lost the hierarchy")
	}
}

// TestSnapshotPinsEpoch checks the Snapshot accessor.
func TestSnapshotPinsEpoch(t *testing.T) {
	in := NewInstance(cowSchema(t))
	snap := in.Snapshot()
	staged := in.Begin()
	if snap.Epoch != 0 || snap.Inst != in {
		t.Errorf("snapshot = %+v", snap)
	}
	if staged.Snapshot().Epoch != 1 {
		t.Errorf("staged snapshot epoch = %d", staged.Snapshot().Epoch)
	}
}

// TestCOWSaveRoundTrip checks that snapshot persistence sees through the
// layer chain: a chained instance saves and reloads to the same contents.
func TestCOWSaveRoundTrip(t *testing.T) {
	in := NewInstance(cowSchema(t))
	for i := 0; i < 3; i++ {
		staged := in.Begin()
		o := newDoc(t, staged, i)
		if err := staged.SetRoot("Docs", object.NewList(o)); err != nil {
			t.Fatal(err)
		}
		in = staged
	}
	var buf bytes.Buffer
	if err := Save(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumObjects() != in.NumObjects() {
		t.Errorf("reloaded objects = %d, want %d", got.NumObjects(), in.NumObjects())
	}
	for _, o := range in.Objects() {
		want, _ := in.Deref(o)
		v, ok := got.Deref(o)
		if !ok || !object.Equal(v, want) {
			t.Errorf("reloaded ν(%s) = %v, want %s", o, v, want)
		}
	}
}

// TestDiscardReleasesLayer pins the eager-release contract: Discard drops
// the staged version's page directory and maps, so an abandoned load's
// staging is garbage immediately — not retained until the next successful
// load happens to replace the pointer.
func TestDiscardReleasesLayer(t *testing.T) {
	in := NewInstance(cowSchema(t))
	staged := in.Begin()
	newDoc(t, staged, 1)
	staged.Discard()
	if staged.objs.Len() != 0 || staged.extent != nil || staged.roots != nil || staged.method != nil {
		t.Error("Discard kept the staged table or maps alive")
	}
	if staged.NumObjects() != 0 {
		t.Error("a discarded version must read as empty")
	}
	// The base is untouched and stageable again.
	if in.NumObjects() != 0 {
		t.Errorf("base NumObjects = %d after discard", in.NumObjects())
	}
	again := in.Begin()
	newDoc(t, again, 2)
	if again.NumObjects() != 1 {
		t.Errorf("restaged NumObjects = %d", again.NumObjects())
	}
}

// TestSetEpoch pins the recovery re-anchoring hook: a deserialized
// instance continues the pre-crash epoch sequence.
func TestSetEpoch(t *testing.T) {
	in := NewInstance(cowSchema(t))
	in.SetEpoch(41)
	if in.Epoch() != 41 {
		t.Fatalf("Epoch = %d, want 41", in.Epoch())
	}
	if got := in.Begin().Epoch(); got != 42 {
		t.Errorf("Begin after SetEpoch: epoch = %d, want 42", got)
	}
}
