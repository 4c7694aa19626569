package sgmldb

import "fmt"

// The write gate (DESIGN.md §8 "State entry and roles"). Whether a node
// may write, apply a primary's log, promote or checkpoint depends on four
// independent facts — is it a follower, has a remote reported a higher
// term, is the log poisoned, was it closed. They are read in one place
// (facts), named in one place (role) and mapped to the sentinel errors in
// one place (admit); every mutating entry point asks admit under loadMu
// instead of testing the facts itself.

// role names a node's authority over its own history. It is derived from
// the facts on every read, never stored beside them.
//
//sgmldbvet:closed
type role uint8

const (
	rolePrimary  role = iota // takes loads and namings
	roleFollower             // applies a primary's log; read-only for clients
	roleFenced               // a primary that saw a higher remote term
	roleDegraded             // a primary whose write-ahead log is poisoned
	roleClosed               // Close released the durability machinery
)

func (r role) String() string {
	return [...]string{"primary", "follower", "fenced", "degraded", "closed"}[r]
}

// op is an operation the gate admits or refuses.
//
//sgmldbvet:closed
type op uint8

const (
	opWrite      op = iota // LoadDocuments, Name
	opApply                // ApplyRecord, ApplyCheckpoint
	opPromote              // Promote
	opCheckpoint           // Checkpoint, the background checkpoint offer
)

func (o op) String() string {
	return [...]string{"write", "apply", "promote", "checkpoint"}[o]
}

// roleFacts is one reading of everything a node's role depends on.
type roleFacts struct {
	durable    bool   // has a write-ahead log (WithDataDir)
	follower   bool   // opened with OpenFollower and not yet promoted
	closed     bool   // Close was called
	term       uint64 // the term this node writes or applies under
	fencedTerm uint64 // the highest term any remote has reported
	poison     error  // the log's sticky storage fault, nil while healthy
}

// facts reads the role facts. A reading taken under loadMu stays true
// until the lock is released, except that a fence or a storage fault may
// arrive at any time — both only ever take authority away.
func (db *Database) facts() roleFacts {
	f := roleFacts{
		follower:   db.follower.Load(),
		closed:     db.closed.Load(),
		term:       db.term.Load(),
		fencedTerm: db.fencedTerm.Load(),
	}
	if db.walLog != nil {
		f.durable = true
		f.poison = db.walLog.Err()
	}
	return f
}

// role names the facts. The order is the precedence of the write
// refusals: closed, then follower (READ_ONLY), then a poisoned log
// (DEGRADED), then a fence (STALE_TERM). A follower is never fenced or
// degraded by name — it applies under the shipped records' terms, and a
// storage fault on it surfaces as DEGRADED from the append it fails.
func (f roleFacts) role() role {
	switch {
	case f.closed:
		return roleClosed
	case f.follower:
		return roleFollower
	case f.poison != nil:
		return roleDegraded
	case f.fencedTerm > f.term:
		return roleFenced
	}
	return rolePrimary
}

// admit is the gate: nil when a node with these facts may perform o, the
// sentinel error it must refuse with otherwise.
func (f roleFacts) admit(o op) error {
	r := f.role()
	if r == roleClosed {
		return fmt.Errorf("%w: database is closed", ErrReadOnly)
	}
	switch o {
	case opWrite:
		switch r {
		case roleFollower:
			return fmt.Errorf("%w: followers apply the primary's log only", ErrReadOnly)
		case roleDegraded:
			return fmt.Errorf("%w: %w", ErrDegraded, f.poison)
		case roleFenced:
			return fmt.Errorf("%w: this primary is at term %d, a remote reported term %d", ErrStaleTerm, f.term, f.fencedTerm)
		case rolePrimary, roleClosed:
		}
	case opApply, opPromote:
		if r != roleFollower {
			return fmt.Errorf("%w: %s", ErrNotFollower, o)
		}
		if o == opPromote && !f.durable {
			return fmt.Errorf("%w: promotion requires a durable follower (WithDataDir)", ErrNotPrimary)
		}
	case opCheckpoint:
		// every open node may checkpoint what it has published
	}
	return nil
}

// admit asks the gate about the node's current facts.
func (db *Database) admit(o op) error { return db.facts().admit(o) }

// Role names the node's write authority — "primary", "follower", "fenced",
// "degraded" or "closed" — as Stats.Role does, from a handful of atomic
// loads: the liveness probe and the daemon's watch loop read it here
// instead of paying for Stats' walk over the instance.
func (db *Database) Role() string { return db.facts().role().String() }
