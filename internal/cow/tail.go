// Package cow holds the two storage shapes the versioned structures are
// built from — the store's instance and the text index, which publish a
// new version per load and must not copy what the load did not touch:
// Tail, an append-only sequence that versions extend in place, and Table,
// an array that versions copy a page at a time.
package cow

import "sync/atomic"

// Tail is one version's view of an append-only sequence whose storage is
// shared between versions: a posting list, a class extent.
//
// The invariant that makes sharing safe: a version reads only its own
// first Len elements, and those are never written again. Appending writes
// the element after them — invisible to every version that exists — so a
// version and the successor built on top of it can use one backing array
// with no copy and no lock.
//
// That argument covers one line of succession. Two versions appended to
// independently from the same parent would both write the same element, so
// each backing array records how many of its elements have been claimed,
// and an append that does not find the count at its own length (a sibling
// got there first, whether it was published or abandoned) copies instead.
// A lineage that never forks never copies, apart from growth.
//
// The zero value is an empty sequence. A Tail is a value: Append returns
// the extended view and leaves the receiver's own view intact.
type Tail[T any] struct {
	b *block[T]
	n int
}

// block is a backing array and the number of its leading elements that
// some version has appended. Elements below claimed are immutable.
type block[T any] struct {
	claimed atomic.Int64
	buf     []T // len == cap
}

// TailOf takes ownership of s as a sequence of its len(s) elements; spare
// capacity is room to append without copying.
func TailOf[T any](s []T) Tail[T] {
	if cap(s) == 0 {
		return Tail[T]{}
	}
	b := &block[T]{buf: s[:cap(s)]}
	b.claimed.Store(int64(len(s)))
	return Tail[T]{b: b, n: len(s)}
}

// Len reports the number of elements in this version's view.
func (s Tail[T]) Len() int { return s.n }

// View returns this version's elements. The result aliases shared
// storage and must not be modified; its capacity is clipped, so appending
// to it copies.
func (s Tail[T]) View() []T {
	if s.b == nil {
		return nil
	}
	return s.b.buf[:s.n:s.n]
}

// Append returns the view extended by v. It writes in place when the
// backing array has room and no other version has appended past this
// view; otherwise it moves the view's elements to a new, larger array
// (grown as the built-in append grows).
func (s Tail[T]) Append(v T) Tail[T] {
	if b := s.b; b != nil && s.n < len(b.buf) && b.claimed.CompareAndSwap(int64(s.n), int64(s.n+1)) {
		b.buf[s.n] = v
		return Tail[T]{b: b, n: s.n + 1}
	}
	return TailOf(append(s.View(), v))
}
