package cow

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestTailSingleLineageSharesStorage is the performance contract: a chain
// of versions, each appended to once, lives in one backing array per
// growth step — appending never copies what a parent holds.
func TestTailSingleLineageSharesStorage(t *testing.T) {
	base := TailOf(make([]int, 0, 64))
	var versions []Tail[int]
	cur := base
	for i := 0; i < 64; i++ {
		cur = cur.Append(i)
		versions = append(versions, cur)
	}
	for i, v := range versions {
		if v.b != base.b {
			t.Fatalf("version %d moved to a new array with room left in the old one", i)
		}
		if v.Len() != i+1 || v.View()[i] != i {
			t.Fatalf("version %d = %v", i, v.View())
		}
	}
	if grown := cur.Append(64); grown.b == base.b || grown.Len() != 65 {
		t.Errorf("append to a full array must grow: %v", grown.View())
	}
}

// TestTailForkCopies is the enforcement: of two appends to one parent the
// second finds the tail claimed and copies, whether the first was kept or
// abandoned, and neither disturbs the parent or the other.
func TestTailForkCopies(t *testing.T) {
	parent := TailOf(append(make([]int, 0, 8), 1, 2, 3))
	first := parent.Append(10)
	second := parent.Append(20)
	if first.b != parent.b {
		t.Error("the first append to a parent with room must be in place")
	}
	if second.b == parent.b {
		t.Error("the second append to the same parent must copy")
	}
	third := parent.Append(30) // first and second both "abandoned"
	for _, c := range []struct {
		name string
		got  Tail[int]
		want []int
	}{
		{"parent", parent, []int{1, 2, 3}},
		{"first", first, []int{1, 2, 3, 10}},
		{"second", second, []int{1, 2, 3, 20}},
		{"third", third, []int{1, 2, 3, 30}},
		{"first's child", first.Append(11), []int{1, 2, 3, 10, 11}},
	} {
		if !slices.Equal(c.got.View(), c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got.View(), c.want)
		}
	}
	if v := parent.View(); cap(v) != len(v) {
		t.Errorf("a view must not expose spare capacity: len %d cap %d", len(v), cap(v))
	}
}

// TestTableVersions drives a seeded random history of clones, sets on old
// elements and appends through a Table, with readers on the retained
// versions throughout (run under -race): every version keeps the contents
// it had when it was retained, whatever its clones went on to write.
func TestTableVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type version struct {
		tab  *Table[int]
		want []int
	}
	var (
		mu       sync.Mutex
		retained []version
	)
	check := func(v version) bool {
		if v.tab.Len() != len(v.want) {
			return false
		}
		for i, w := range v.want {
			if v.tab.Get(i) != w {
				return false
			}
		}
		return true
	}
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
					if !check(v) {
						t.Error("a retained version changed under a reader")
						return
					}
				}
			}
		}()
	}
	head := &Table[int]{}
	var model []int
	for step := 0; step < 400; step++ {
		// Clone from the head, or now and then from an older version (a
		// second clone of one parent).
		parent, pmodel := head, model
		fork := len(retained) > 0 && rng.Intn(5) == 0
		if fork {
			v := retained[rng.Intn(len(retained))]
			parent, pmodel = v.tab, v.want
		}
		next := parent.Clone()
		nmodel := slices.Clone(pmodel)
		for k := rng.Intn(40); k >= 0; k-- {
			if len(nmodel) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(nmodel))
				nmodel[i] = rng.Int()
				next.Set(i, nmodel[i])
			} else {
				nmodel = append(nmodel, rng.Int())
				next.Append(nmodel[len(nmodel)-1])
			}
		}
		if rng.Intn(4) == 0 {
			continue // abandoned
		}
		mu.Lock()
		retained = append(retained, version{tab: &next, want: nmodel})
		mu.Unlock()
		if !fork {
			head, model = &next, nmodel
		}
	}
	close(stop)
	wg.Wait()
	for i, v := range retained {
		if !check(v) {
			t.Errorf("retained version %d changed", i)
		}
	}
	if len(model) <= 2*PageSize {
		t.Fatalf("history too short to cross pages: %d elements", len(model))
	}
}
