package sgmldb

import (
	"fmt"

	"sgmldb/internal/calculus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/object"
	"sgmldb/internal/oql"
	"sgmldb/internal/sgml"
	"sgmldb/internal/text"
	"sgmldb/internal/wal"
)

// Durability (DESIGN.md §8). With WithDataDir, every committed load batch
// and root naming appends one checksummed record to a write-ahead log and
// fsyncs it *before* the atomic snapshot swap publishes the new epoch —
// so any epoch a reader ever observed is recoverable. A checkpointer
// (background, every WithCheckpointEvery records, or on-demand via
// Checkpoint) serializes the published (instance, index, schema) triple
// to a sidecar file and truncates the log prefix it covers. OpenDTD on an
// existing directory recovers: newest valid checkpoint, then replay of
// the log tail; a torn tail record (the crash signature) is truncated
// silently, any other damage is ErrCorruptLog.

// defaultCheckpointEvery is the auto-checkpoint cadence (in committed
// records) when WithDataDir is set and WithCheckpointEvery is not.
const defaultCheckpointEvery = 8

// openDurable recovers (or initializes) the data directory and attaches
// the log to the database, as a primary's own history or — follower — as
// a copy of the primary's. Called from open before the database is
// returned, so no queries or loads race it.
func (db *Database) openDurable(follower bool) error {
	l, ck, tail, err := wal.Open(db.dataDir)
	if err != nil {
		return err
	}
	db.walLog = l
	if err := db.recoverFrom(ck, tail); err != nil {
		l.Close()
		return err
	}
	if l.Seq() == 0 && !follower {
		// Fresh directory: pin the DTD as the first record so a reopen can
		// verify it is given the same schema. A fresh *follower* directory
		// stays empty — its record 1 is the primary's shipped schema record.
		if _, err := db.apply(wal.Record{Kind: wal.KindSchema, Schema: db.dtdSource}, nil); err != nil {
			l.Close()
			return err
		}
	}
	db.term.Store(l.Term())
	if follower {
		// A durable follower's local log is the shipped history: resume
		// applying exactly past what it already holds.
		db.appliedSeq.Store(l.Seq())
		db.ObservePrimarySeq(l.Seq())
	}
	if db.checkpointEvery == 0 {
		db.checkpointEvery = defaultCheckpointEvery
	}
	if db.checkpointEvery > 0 {
		db.ckptCh = make(chan *wal.Checkpoint, 1)
		db.ckptWG.Add(1)
		go db.checkpointer()
	}
	return nil
}

// recoverFrom rebuilds the last durable state: adopt the newest checkpoint
// (or stay at the empty instance), then replay the records it does not
// cover through apply — the same path a follower applies shipped records
// through; commit sees they are already in the log and does not append
// them again. Loading is deterministic, so replay reproduces the
// pre-crash oids and epochs.
func (db *Database) recoverFrom(ck *wal.Checkpoint, tail []wal.Record) error {
	if ck != nil {
		if ck.DTD != db.dtdSource {
			return fmt.Errorf("sgmldb: data directory %s holds a database for a different DTD", db.dataDir)
		}
		db.ckptSeq.Store(ck.Seq)
		db.adopt(ck)
	}
	for _, rec := range tail {
		if _, err := db.apply(rec, nil); err != nil {
			return fmt.Errorf("sgmldb: replay record %d: %w", rec.Seq, err)
		}
	}
	return nil
}

// apply is the one entry for a record — own, replayed or shipped — and
// the only switch over record kinds: it turns the record into a staging
// step for commit. docs is a load's batch when the caller already parsed
// it (LoadDocuments parses outside loadMu); otherwise apply parses
// rec.Docs. Caller holds loadMu (or, during open, owns the database) and
// has passed the gate.
func (db *Database) apply(rec wal.Record, docs []*sgml.Document) (oids []object.OID, err error) {
	switch rec.Kind {
	case wal.KindSchema:
		if rec.Schema != db.dtdSource {
			return nil, fmt.Errorf("the log was written for a different DTD")
		}
		return nil, db.commit(rec, nil)
	case wal.KindLoad:
		if docs == nil {
			if docs, err = db.parseBatch(rec.Docs); err != nil {
				return nil, err
			}
		}
		err = db.commit(rec, func() (*text.Index, error) {
			if oids, err = db.Loader.LoadAll(docs); err != nil {
				return nil, err
			}
			ix := db.state().Index.Clone()
			for _, oid := range oids {
				ix.Add(text.DocID(oid), dtdmap.TextOf(db.Loader.Instance, oid))
			}
			return ix, nil
		})
		if err != nil {
			return nil, err
		}
		return oids, nil
	case wal.KindName:
		return nil, db.commit(rec, func() (*text.Index, error) {
			if err := db.stageName(rec.Name, object.OID(rec.OID)); err != nil {
				return nil, err
			}
			return db.state().Index, nil
		})
	case wal.KindTerm:
		// a promotion carries no data: commit appends it and adopts rec.Term
		return nil, db.commit(rec, nil)
	default:
		return nil, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}

// stageName binds a root of persistence on a new version of the loader's
// instance, cloning the schema when the root is new so pinned readers keep
// a stable view of G. The loader moves onto the version first, so commit's
// mark discards it whatever fails after.
func (db *Database) stageName(name string, oid object.OID) error {
	base := db.Loader.Instance
	class, ok := base.ClassOf(oid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownObject, oid)
	}
	staged := base.Begin()
	db.Loader.Instance = staged
	if _, exists := base.Schema().RootType(name); !exists {
		s2 := base.Schema().Clone()
		if err := s2.AddRoot(name, object.Class(class)); err != nil {
			return err
		}
		staged.AdoptSchema(s2)
	}
	return staged.SetRoot(name, oid)
}

// commit is the one commit step, owning the only log append on the write
// path and the only publish of a new version. In order: mark the loader,
// run stage (nil for records that carry no data), append rec, and only
// then adopt its term, publish and offer a checkpoint — a published epoch
// is always recoverable. Any error or panic restores the mark, leaving the
// loader, the published version and the term as they were.
//
// A durable node appends rec unless its log already holds it: a record
// numbered at or below the log's sequence, which only recovery replay
// hands in. Own writes arrive unnumbered (the log numbers them and stamps
// its term); shipped records arrive one past the log (ApplyRecord checks).
// Caller holds loadMu and has passed the gate.
func (db *Database) commit(rec wal.Record, stage func() (*text.Index, error)) (err error) {
	mark := db.Loader.Mark()
	defer func() {
		if r := recover(); r != nil {
			err = calculus.Internal(r)
		}
		if err != nil {
			db.Loader.Restore(mark)
		}
	}()
	var ix *text.Index
	if stage != nil {
		if ix, err = stage(); err != nil {
			return err
		}
	}
	if replay := db.walLog != nil && rec.Seq != 0 && rec.Seq <= db.walLog.Seq(); !replay {
		if db.walLog != nil {
			if err := db.walLog.Append(rec); err != nil {
				return db.wrapDegraded(err)
			}
		}
		db.raiseTerm(rec.Term)
	}
	if stage != nil {
		db.Engine.Publish(oql.State{Snap: db.Loader.Instance.Snapshot(), Index: ix})
		db.maybeCheckpoint()
	}
	return nil
}

// captureCheckpoint snapshots everything a checkpoint of the published
// version needs. Caller holds loadMu, so the (seq, epoch, docs, inst,
// index) quintuple is consistent; the instance and index are published
// versions and thus immutable, so they can be serialized outside the lock.
func (db *Database) captureCheckpoint() *wal.Checkpoint {
	st := db.state()
	loaderDocs := db.Loader.Documents()
	docs := make([]uint64, len(loaderDocs))
	for i, o := range loaderDocs {
		docs[i] = uint64(o)
	}
	ck := &wal.Checkpoint{
		Epoch: st.Snap.Epoch,
		DTD:   db.dtdSource,
		Docs:  docs,
		Inst:  st.Snap.Inst,
		Index: st.Index,
	}
	if db.walLog != nil {
		ck.Seq, ck.Term = db.walLog.Seq(), db.walLog.Term()
	}
	return ck
}

// maybeCheckpoint hands the just-published version to the background
// checkpointer once enough records have accumulated. Caller holds loadMu.
// The send never blocks: if the checkpointer is still busy with the
// previous version, this one is skipped and the counter keeps growing, so
// the next commit offers again.
func (db *Database) maybeCheckpoint() {
	if db.ckptCh == nil || db.admit(opCheckpoint) != nil {
		return
	}
	db.recordsSinceCkpt++
	if db.recordsSinceCkpt < db.checkpointEvery {
		return
	}
	select {
	case db.ckptCh <- db.captureCheckpoint():
		db.recordsSinceCkpt = 0
	default:
	}
}

// checkpointer is the background goroutine that makes offered versions
// durable and drops the log prefix they cover. A failed write only means
// the log keeps more history; the next offer retries from scratch.
func (db *Database) checkpointer() {
	defer db.ckptWG.Done()
	for ck := range db.ckptCh {
		db.writeCheckpoint(ck)
	}
}

// writeCheckpoint serializes one checkpoint and truncates the covered log
// prefix. ckptMu keeps on-demand and background checkpoints from
// interleaving their temp-file/rename/truncate sequences. Every failure —
// background or on-demand — is counted and its message recorded, so a
// silently sick disk shows up in Stats and /v1/health long before the log
// poisons: a failed checkpoint only means the log keeps more history, but
// a *streak* of them means recovery time is growing without bound.
func (db *Database) writeCheckpoint(ck *wal.Checkpoint) error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	err := wal.WriteCheckpoint(db.dataDir, ck)
	if err == nil {
		db.ckptSeq.Store(ck.Seq)
		err = db.walLog.TruncatePrefix(ck.Seq)
	}
	if err != nil {
		db.ckptFailures.Add(1)
		db.ckptFailStreak.Add(1)
		msg := err.Error()
		db.lastCkptErr.Store(&msg)
		return err
	}
	db.ckptFailStreak.Store(0)
	return nil
}

// Checkpoint forces a checkpoint of the currently published version and
// truncates the log prefix it covers, synchronously. On a database
// without a data directory it is a no-op. Useful before a planned
// shutdown to make the next open's recovery O(1) in loaded documents.
func (db *Database) Checkpoint() error {
	if db.walLog == nil {
		return nil
	}
	db.loadMu.Lock()
	if err := db.admit(opCheckpoint); err != nil {
		db.loadMu.Unlock()
		return err
	}
	ck := db.captureCheckpoint()
	db.recordsSinceCkpt = 0
	db.loadMu.Unlock()
	return db.writeCheckpoint(ck)
}

// wrapDegraded dresses a commit-path append failure in ErrDegraded when
// the failure poisoned the log (or found it already poisoned). Transient
// injected faults that do not poison — the crash-seam faultpoints — pass
// through unchanged: they model a kill, not a sick disk.
func (db *Database) wrapDegraded(err error) error {
	if err == nil || db.facts().poison == nil {
		return err
	}
	return fmt.Errorf("%w: %w", ErrDegraded, err)
}

// DegradedState reports whether the database is in degraded read-only
// mode and, when it is, the sticky reason (the first storage fault that
// poisoned the log). A non-durable database is never degraded.
func (db *Database) DegradedState() (degraded bool, reason string) {
	if perr := db.facts().poison; perr != nil {
		return true, perr.Error()
	}
	return false, ""
}

// CheckpointFailures reports the checkpoint-failure telemetry: total
// failed checkpoint attempts since open, the current consecutive-failure
// streak (0 after a success), and the last failure's message ("" if
// none).
func (db *Database) CheckpointFailures() (total, streak uint64, lastErr string) {
	total = db.ckptFailures.Load()
	streak = db.ckptFailStreak.Load()
	if msg := db.lastCkptErr.Load(); msg != nil {
		lastErr = *msg
	}
	return total, streak, lastErr
}

// ScrubReport summarises one online integrity pass over the data
// directory: every committed log frame re-read and re-validated, every
// checkpoint file fully decoded.
type ScrubReport struct {
	Frames         int    // valid committed log frames
	LastSeq        uint64 // last committed log sequence number
	Checkpoints    int    // checkpoint files that fully decode
	BadCheckpoints int    // checkpoint files that do not (recovery skips them)
	CheckpointSeq  uint64 // newest valid checkpoint's covered sequence
}

// Scrub runs an online integrity check of the data directory without
// stopping the database: it re-reads the committed log from disk and
// re-verifies every frame's checksum and the sequence chain, then fully
// decodes every checkpoint file. Readers are untouched (queries run
// against published in-memory epochs); appends are held out only for one
// sequential read of the log. A degraded database can still be scrubbed —
// auditing the durable prefix is exactly what an operator wants before
// failing over. On a database without a data directory it reports
// ErrNotPrimary.
func (db *Database) Scrub() (*ScrubReport, error) {
	if db.walLog == nil {
		return nil, fmt.Errorf("%w: scrub", ErrNotPrimary)
	}
	frames, lastSeq, err := db.walLog.Scrub()
	if err != nil {
		return nil, err
	}
	newest, valid, bad, err := wal.ScrubCheckpoints(db.dataDir)
	if err != nil {
		return nil, err
	}
	return &ScrubReport{
		Frames:         frames,
		LastSeq:        lastSeq,
		Checkpoints:    valid,
		BadCheckpoints: bad,
		CheckpointSeq:  newest,
	}, nil
}

// Close releases the durability machinery: it stops the background
// checkpointer and closes the log file. The in-memory database keeps
// answering queries, but every later write, apply, promotion and
// checkpoint is refused with ErrReadOnly (the closed role). On a database
// without a data directory it is a no-op. Close is idempotent.
func (db *Database) Close() error {
	db.loadMu.Lock()
	if db.walLog == nil || db.closed.Load() {
		db.loadMu.Unlock()
		return nil
	}
	db.closed.Store(true)
	db.loadMu.Unlock()
	if db.ckptCh != nil {
		close(db.ckptCh)
	}
	db.ckptWG.Wait()
	return db.walLog.Close()
}
