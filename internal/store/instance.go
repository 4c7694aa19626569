package store

import (
	"fmt"
	"sort"

	"sgmldb/internal/cow"
	"sgmldb/internal/object"
)

// Method is an executable method body registered against a signature in M:
// the μ component of an instance assigns one to each method name.
type Method func(inst *Instance, recv object.OID, args []object.Value) (object.Value, error)

// Instance is a 4-tuple (π, ν, μ, γ) over a schema (Section 5.1):
//
//   - π assigns each class a disjoint finite set of oids (the inherited
//     assignment π(c) = ∪{π_d(c') | c' ≺* c} is derived on demand);
//   - ν maps each oid to a value of the correct type;
//   - μ assigns executable semantics to method names;
//   - γ assigns each persistence root a value of its declared type.
//
// Concurrency: an Instance is versioned copy-on-write (see cow.go). The
// readers (Deref, ClassOf, Root, Extent, …) are safe to call from any
// number of goroutines, provided no mutator (NewObject, SetValue, SetRoot,
// BindMethod, Begin) runs on the same version at the same time; Deref and
// ClassOf are two index operations on the oid table, whatever the
// instance's history. The sgmldb facade never mutates a published version:
// writers stage into a private Begin version and publish it with an atomic
// pointer swap, so the hot query path pays no per-Deref synchronisation
// and never blocks on a load.
type Instance struct {
	schema *Schema
	epoch  uint64 // version number, bumped by Begin

	// objs is the oid table (π_d by oid, and ν). Oids 1 … objs.Len() are
	// assigned, densely; oid o is element o-1.
	objs cow.Table[slot]

	extent map[string]cow.Tail[object.OID] // π_d by class, in creation order
	roots  map[string]object.Value         // γ
	method map[string]Method               // μ, keyed Class::Name
}

// NewInstance returns an empty instance of the schema.
func NewInstance(schema *Schema) *Instance {
	return &Instance{
		schema: schema,
		extent: make(map[string]cow.Tail[object.OID]),
		roots:  make(map[string]object.Value),
		method: make(map[string]Method),
	}
}

// Schema returns the schema the instance conforms to.
func (in *Instance) Schema() *Schema { return in.schema }

// NewObject creates an object of the given class with value v and returns
// its fresh oid. The class must be declared; the value is checked lazily by
// Check, not here, so that mutually referencing objects can be built in any
// order.
func (in *Instance) NewObject(class string, v object.Value) (object.OID, error) {
	if !in.schema.Hierarchy().Has(class) {
		return 0, fmt.Errorf("store: new object of undeclared class %q", class)
	}
	if v == nil {
		v = object.Nil{}
	}
	in.objs.Append(slot{class: class, value: v})
	o := object.OID(in.objs.Len())
	in.extent[class] = in.extent[class].Append(o)
	return o, nil
}

// SetValue updates ν(o). On a staged version the page holding o is copied
// first if an older version shares it; the older version is untouched.
func (in *Instance) SetValue(o object.OID, v object.Value) error {
	s, ok := in.slotOf(o)
	if !ok {
		return fmt.Errorf("store: set value of unknown oid %s", o)
	}
	if v == nil {
		v = object.Nil{}
	}
	s.value = v
	in.objs.Set(int(o-1), s)
	return nil
}

// slotOf returns the table entry of o and whether the oid is assigned.
func (in *Instance) slotOf(o object.OID) (slot, bool) {
	if o == 0 || o > object.OID(in.objs.Len()) {
		return slot{}, false
	}
	return in.objs.Get(int(o - 1)), true
}

// Deref returns ν(o) and whether the oid is assigned.
func (in *Instance) Deref(o object.OID) (object.Value, bool) {
	s, ok := in.slotOf(o)
	return s.value, ok
}

// ClassOf returns the (most specific) class of an oid under π_d.
func (in *Instance) ClassOf(o object.OID) (string, bool) {
	s, ok := in.slotOf(o)
	return s.class, ok
}

// Extent returns π(c): the oids of class c and all of its subclasses, in
// creation order.
func (in *Instance) Extent(c string) []object.OID {
	var out []object.OID
	for _, s := range in.schema.Hierarchy().Subclasses(c) {
		out = append(out, in.extent[s].View()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirectExtent returns π_d(c): the oids created directly in class c, in
// creation order.
func (in *Instance) DirectExtent(c string) []object.OID {
	return append([]object.OID(nil), in.extent[c].View()...)
}

// Objects returns every assigned oid in ascending order.
func (in *Instance) Objects() []object.OID {
	out := make([]object.OID, in.NumObjects())
	for i := range out {
		out[i] = object.OID(i + 1)
	}
	return out
}

// NumObjects reports |O|.
func (in *Instance) NumObjects() int { return in.objs.Len() }

// SetRoot assigns γ(name) = v. The root must be declared in the schema.
func (in *Instance) SetRoot(name string, v object.Value) error {
	if _, ok := in.schema.RootType(name); !ok {
		return fmt.Errorf("store: undeclared persistence root %q", name)
	}
	if v == nil {
		v = object.Nil{}
	}
	in.roots[name] = v
	return nil
}

// Root returns γ(name) and whether it has been assigned.
func (in *Instance) Root(name string) (object.Value, bool) {
	v, ok := in.roots[name]
	return v, ok
}

// BindMethod attaches the executable body for Class::Name.
func (in *Instance) BindMethod(class, name string, m Method) error {
	if !in.schema.Hierarchy().Has(class) {
		return fmt.Errorf("store: method on undeclared class %q", class)
	}
	in.method[class+"::"+name] = m
	return nil
}

// HasMethodNamed reports whether any class binds a method with this name
// (used by the calculus to decide whether a function call is a method
// dispatch).
func (in *Instance) HasMethodNamed(name string) bool {
	for key := range in.method {
		if i := len(key) - len(name); i > 2 && key[i:] == name && key[i-2:i] == "::" {
			return true
		}
	}
	return false
}

// Invoke runs method name on receiver o, resolving the body along the
// inheritance order (most specific class first).
func (in *Instance) Invoke(o object.OID, name string, args ...object.Value) (object.Value, error) {
	c, ok := in.ClassOf(o)
	if !ok {
		return nil, fmt.Errorf("store: invoke on unknown oid %s", o)
	}
	// Walk c then its superclasses (breadth-first) for a binding.
	queue := []string{c}
	seen := map[string]bool{c: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if m, ok := in.method[cur+"::"+name]; ok {
			return m(in, o, args)
		}
		for _, p := range in.schema.Hierarchy().Parents(cur) {
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	return nil, fmt.Errorf("store: no method %q on class %s", name, c)
}

// Check validates the instance against the schema:
//
//   - every object value is in the domain of its class type
//     (ν(o) ∈ dom(σ(c)) for o ∈ π_d(c));
//   - every assigned root value is in the domain of its declared type;
//   - every oid reachable from a value is assigned;
//   - every class constraint holds on every object of the class.
//
// It returns all violations, not only the first.
func (in *Instance) Check() []error {
	var errs []error
	h := in.schema.Hierarchy()
	classOf := func(o object.OID) (string, bool) { return in.ClassOf(o) }
	assigned := func(o object.OID) bool { _, ok := in.Deref(o); return ok }
	for _, c := range h.Classes() {
		t, _ := h.TypeOf(c)
		for _, o := range in.DirectExtent(c) {
			v, _ := in.Deref(o)
			if !object.MemberOf(v, t, h, classOf) {
				errs = append(errs, fmt.Errorf("store: ν(%s) = %s is not in dom(σ(%s)) = %s", o, v, c, t))
			}
			if dangling := danglingOIDs(v, assigned); len(dangling) > 0 {
				errs = append(errs, fmt.Errorf("store: object %s references unassigned oids %v", o, dangling))
			}
			for _, con := range in.schema.Constraints(c) {
				if !con.Holds(v, in.Deref) {
					errs = append(errs, ConstraintViolation{Class: c, OID: o, Constraint: con})
				}
			}
		}
	}
	for _, g := range in.schema.Roots() {
		v, ok := in.Root(g)
		if !ok {
			continue
		}
		t, _ := in.schema.RootType(g)
		if !object.MemberOf(v, t, h, classOf) {
			errs = append(errs, fmt.Errorf("store: γ(%s) = %s is not in dom(%s)", g, v, t))
		}
		if dangling := danglingOIDs(v, assigned); len(dangling) > 0 {
			errs = append(errs, fmt.Errorf("store: root %s references unassigned oids %v", g, dangling))
		}
	}
	return errs
}

// danglingOIDs collects oids mentioned in v that are not assigned.
func danglingOIDs(v object.Value, assigned func(object.OID) bool) []object.OID {
	var out []object.OID
	var walk func(object.Value)
	walk = func(v object.Value) {
		switch x := v.(type) {
		case object.OID:
			if !assigned(x) {
				out = append(out, x)
			}
		case *object.Tuple:
			for i := 0; i < x.Len(); i++ {
				walk(x.At(i).Value)
			}
		case *object.List:
			for i := 0; i < x.Len(); i++ {
				walk(x.At(i))
			}
		case *object.Set:
			for i := 0; i < x.Len(); i++ {
				walk(x.At(i))
			}
		case *object.Union_:
			walk(x.Value)
		default:
			// atoms and nil contain no oids
		}
	}
	walk(v)
	return out
}

// Stats summarises the instance for the storage-overhead experiment (B4).
type Stats struct {
	Objects     int            // |O|
	PerClass    map[string]int // |π_d(c)|
	ValueBytes  int            // canonical encoding size of all ν values
	RootValues  int
	Roots       []string
	MethodCount int
}

// Stats computes instance statistics.
func (in *Instance) Stats() Stats {
	st := Stats{
		Objects:     in.NumObjects(),
		PerClass:    make(map[string]int),
		MethodCount: len(in.method),
		RootValues:  len(in.roots),
	}
	for c, ext := range in.extent {
		st.PerClass[c] = ext.Len()
	}
	for i := 0; i < in.objs.Len(); i++ {
		st.ValueBytes += len(object.Key(in.objs.Get(i).value))
	}
	for g, v := range in.roots {
		st.Roots = append(st.Roots, g)
		st.ValueBytes += len(object.Key(v))
	}
	sort.Strings(st.Roots)
	return st
}
