package store

import (
	"maps"

	"sgmldb/internal/cow"
	"sgmldb/internal/object"
)

// Copy-on-write instance versions. A document load must be atomic: either
// every object it creates becomes visible, or none does. Mutating a shared
// (π, ν, μ, γ) in place cannot provide that — an error halfway through a
// load leaves orphan objects behind — and it forces readers to block for
// the whole load. Instead, writers stage their changes in a private
// version that shares the published one's storage (Begin), and the owner
// publishes the staged version with one atomic pointer swap only if the
// whole load succeeded. A failed load simply drops the version.
//
// Readers that pinned the old version keep reading it: a published
// version is never mutated again, so pinned reads need no locks at all.
//
// A version costs what it changes, not what the instance holds. Oids are
// dense and ascending, so π_d and ν are one table indexed by oid, copied a
// page at a time: Begin copies the page directory and shares every page,
// the first write to a shared page (a new object in the partly filled last
// page, a SetValue on an older oid) copies that page, and further new
// objects fill fresh pages (cow.Table). The per-class extents are shared
// append-only sequences (cow.Tail): new oids are appended past every older
// version's length. γ and μ are small maps, copied whole.

// slot is one oid's entry in the table: its class under π_d and ν(oid).
type slot struct {
	class string
	value object.Value
}

// Epoch reports the instance's version number: 0 for a fresh instance,
// incremented by every Begin. Epochs order the published versions of one
// database; two instances from different Begin chains are not comparable.
func (in *Instance) Epoch() uint64 { return in.epoch }

// Begin starts a new copy-on-write version of the instance: an Instance
// with the receiver's contents that stages every mutation (NewObject,
// SetValue, SetRoot, BindMethod) privately. The receiver's contents are
// not touched — it can keep serving readers — and the staged version
// becomes visible only when the caller publishes it (e.g. swaps it into an
// atomic pointer). Discarding the returned instance discards the staged
// mutations wholesale, which is what makes failed loads atomic. Any number
// of versions may be begun from one receiver; they do not see each other.
//
// Begin is a writer's operation, like the mutators: it marks the
// receiver's pages shared, so it must not run concurrently with another
// Begin or a mutation of the same receiver (readers are unaffected).
func (in *Instance) Begin() *Instance {
	return &Instance{
		schema: in.schema,
		epoch:  in.epoch + 1,
		objs:   in.objs.Clone(),
		extent: maps.Clone(in.extent),
		roots:  maps.Clone(in.roots),
		method: maps.Clone(in.method),
	}
}

// SetEpoch re-anchors the instance's version number. Recovery uses it: an
// instance deserialized from a checkpoint starts at epoch 0, but the
// epochs it publishes must continue the pre-crash sequence so that the
// recovered database reports exactly the epoch that was durable.
func (in *Instance) SetEpoch(e uint64) { in.epoch = e }

// Discard releases a staged version that will never be published: it
// drops the version's table, extents and maps so an abandoned load's
// staging becomes garbage immediately rather than living until the
// *Instance itself is collected. The instance is unusable afterwards (it
// reads as empty).
func (in *Instance) Discard() {
	in.objs = cow.Table[slot]{}
	in.extent = nil
	in.roots = nil
	in.method = nil
}

// AdoptSchema swaps the instance's schema pointer. It is meant for staged
// versions only (between Begin and publish): declaring a new persistence
// root at run time must not mutate the schema that older pinned versions
// still read, so the writer clones the schema, adds the root to the
// clone, and adopts it on the staged version before publishing.
func (in *Instance) AdoptSchema(s *Schema) { in.schema = s }

// Snapshot pins one published instance version: the version readers hold
// for the duration of a query so every Deref, extent scan and root lookup
// answers against a single consistent (π, ν, μ, γ).
type Snapshot struct {
	Inst  *Instance
	Epoch uint64
}

// Snapshot captures the instance as a pinnable version.
func (in *Instance) Snapshot() Snapshot { return Snapshot{Inst: in, Epoch: in.epoch} }
