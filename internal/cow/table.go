package cow

// PageSize is the number of elements per page of a Table. A larger page
// makes the directory Clone copies shorter and the page a version's first
// write copies longer; at 256 a page of two-word elements is 4 KB and the
// directory costs 1/32 byte per element.
const (
	pageShift = 8
	PageSize  = 1 << pageShift
)

// Table is an array indexed from 0 that grows by Append and is versioned
// copy-on-write a page at a time: the store's oid table (oids are dense
// and ascending) and the text index's posting lists by word number. Clone
// copies the page directory — one pointer per PageSize elements — and
// shares every page; the first write a version makes to a shared page
// copies that page, and appends past the last page fill fresh ones. A
// version therefore costs the pages it touches, whatever the table holds,
// and reading an element is two index operations whatever its history.
//
// Readers need no lock on a version that is no longer written. The zero
// value is an empty table.
type Table[T any] struct {
	dir []*page[T]
	n   int
	// own marks the pages this version allocated and may write in place.
	own *owner
}

type page[T any] struct {
	own   *owner
	elems [PageSize]T
}

// owner identifies one version of a table as the allocator of a page. It
// is not the table itself, so that a page does not keep the version that
// made it — and through its directory every page that version saw —
// reachable.
type owner struct{ _ byte }

// Len reports the number of elements.
func (t *Table[T]) Len() int { return t.n }

// Get returns element i, which must be below Len.
func (t *Table[T]) Get(i int) T { return t.dir[i>>pageShift].elems[i&(PageSize-1)] }

// Set replaces element i, which must be below Len, copying its page first
// if another version shares it.
func (t *Table[T]) Set(i int, v T) {
	p := t.dir[i>>pageShift]
	if p.own != t.own { // a page's owner is never nil
		cp := new(page[T])
		*cp = *p
		cp.own = t.ownerTag()
		t.dir[i>>pageShift] = cp
		p = cp
	}
	p.elems[i&(PageSize-1)] = v
}

// Append adds an element at index Len.
func (t *Table[T]) Append(v T) {
	if t.n == len(t.dir)<<pageShift {
		t.dir = append(t.dir, &page[T]{own: t.ownerTag()})
	}
	t.n++
	t.Set(t.n-1, v)
}

// ownerTag returns this version's tag, made at its first write.
func (t *Table[T]) ownerTag() *owner {
	if t.own == nil {
		t.own = new(owner)
	}
	return t.own
}

// Clone returns a new version of the table with the same elements. Every
// page is shared between the two afterwards and neither may write one in
// place: the receiver gives up the pages it owned, so it stays safe to
// write to, at the price of copying like the clone does.
func (t *Table[T]) Clone() Table[T] {
	t.own = nil
	// Room for the pages a small batch appends, so the directory is copied
	// once per version, not twice.
	dir := make([]*page[T], len(t.dir), len(t.dir)+2)
	copy(dir, t.dir)
	return Table[T]{dir: dir, n: t.n}
}
