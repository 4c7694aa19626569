package sgmldb

import (
	"errors"
	"fmt"
	"testing"
)

// TestGateTable drives the write gate through every combination of the
// role facts × durability × operation and checks the wire code it answers
// with against the documented precedence (DESIGN.md §8 "State entry and
// roles"): closed refuses everything; on writes READ_ONLY (follower)
// comes before DEGRADED before STALE_TERM; on promote NOT_FOLLOWER comes
// before NOT_PRIMARY; checkpoints are open to every open node.
func TestGateTable(t *testing.T) {
	poison := errors.New("fsync: input/output error")
	want := func(follower, fenced, degraded, closed, durable bool, o op) string {
		if closed {
			return CodeReadOnly
		}
		switch o {
		case opWrite:
			switch {
			case follower:
				return CodeReadOnly
			case degraded:
				return CodeDegraded
			case fenced:
				return CodeStaleTerm
			}
		case opApply:
			if !follower {
				return CodeNotFollower
			}
		case opPromote:
			switch {
			case !follower:
				return CodeNotFollower
			case !durable:
				return CodeNotPrimary
			}
		case opCheckpoint:
		}
		return CodeOK
	}
	bools := []bool{false, true}
	for _, follower := range bools {
		for _, fenced := range bools {
			for _, degraded := range bools {
				for _, closed := range bools {
					for _, durable := range bools {
						f := roleFacts{durable: durable, follower: follower, closed: closed, term: 3, fencedTerm: 3}
						if fenced {
							f.fencedTerm = 4
						}
						if degraded {
							f.poison = poison
						}
						for _, o := range []op{opWrite, opApply, opPromote, opCheckpoint} {
							name := fmt.Sprintf("follower=%v fenced=%v degraded=%v closed=%v durable=%v %s",
								follower, fenced, degraded, closed, durable, o)
							err := f.admit(o)
							if got, w := Code(err), want(follower, fenced, degraded, closed, durable, o); got != w {
								t.Errorf("%s: admit = %q (%v), want %q", name, got, err, w)
							}
							if errors.Is(err, ErrDegraded) && !errors.Is(err, poison) {
								t.Errorf("%s: DEGRADED lost the storage fault: %v", name, err)
							}
						}
					}
				}
			}
		}
	}
}

// TestRoleNames pins the role each combination of facts is reported as
// (Stats.Role, /v1/health "role"): the name follows the write precedence.
func TestRoleNames(t *testing.T) {
	poison := errors.New("disk full")
	for _, c := range []struct {
		f    roleFacts
		want string
	}{
		{roleFacts{}, "primary"},
		{roleFacts{durable: true, term: 2, fencedTerm: 2}, "primary"},
		{roleFacts{follower: true}, "follower"},
		{roleFacts{follower: true, term: 1, fencedTerm: 5}, "follower"}, // followers are never fenced
		{roleFacts{follower: true, durable: true, poison: poison}, "follower"},
		{roleFacts{durable: true, term: 1, fencedTerm: 2}, "fenced"},
		{roleFacts{durable: true, poison: poison}, "degraded"},
		{roleFacts{durable: true, poison: poison, term: 1, fencedTerm: 2}, "degraded"},
		{roleFacts{durable: true, closed: true, follower: true, poison: poison}, "closed"},
	} {
		if got := c.f.role().String(); got != c.want {
			t.Errorf("role(%+v) = %q, want %q", c.f, got, c.want)
		}
	}
}
