package sgmldb

import (
	"errors"
	"os"
	"syscall"
	"testing"

	"sgmldb/internal/faultpoint"
	"sgmldb/internal/wal"
)

// The disk-fault chaos suite (make chaos runs it under -race). Where
// crash_test.go photographs a kill, these tests model the *disk* failing
// while the process lives: a failed fsync on the append path, a full
// disk under the checkpointer, an unsyncable directory. The contract
// under test is DESIGN.md §11: the log fails closed (poison), the
// database degrades to read-only serving instead of lying about
// durability, no unlogged epoch is ever published, and every directory a
// fault leaves behind fscks clean — recovery never needs a hybrid.

// diskFault is a realistic injected storage error: an ENOSPC-rooted
// *os.PathError, so the wal taxonomy classifies it ErrDiskFull.
func diskFault(op string) error {
	return &os.PathError{Op: op, Path: "wal.log", Err: syscall.ENOSPC}
}

// TestChaosDiskFaultAppendSyncPoisons is the tentpole scenario: a failed
// fsync in Append on a live primary. The batch must fail with
// ErrDegraded, nothing may be published, readers and the feed keep
// serving the durable prefix, every later write fails fast, and the
// directory both scrubs and fscks clean.
func TestChaosDiskFaultAppendSyncPoisons(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	epochPre := db.Epoch()
	countPre := articleCount(t, db)
	seqPre, err := db.FeedSeq()
	if err != nil {
		t.Fatal(err)
	}

	disarm := faultpoint.Arm("wal/append-sync-error", faultpoint.Once(faultpoint.Error(diskFault("sync"))))
	defer disarm()
	_, err = db.LoadDocuments([]string{src})
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, wal.ErrDiskFull) {
		t.Fatalf("load under failed fsync = %v, want ErrDegraded wrapping ErrDiskFull", err)
	}
	if Code(err) != CodeDegraded {
		t.Errorf("Code = %q, want DEGRADED", Code(err))
	}

	// Append before publish: the failed append published nothing, and
	// readers keep answering from the last good epoch.
	if got := db.Epoch(); got != epochPre {
		t.Fatalf("epoch after poisoned append = %d, want %d (no publish after failed append)", got, epochPre)
	}
	if got := articleCount(t, db); got != countPre {
		t.Errorf("reads after poison = %d articles, want %d", got, countPre)
	}

	// Every later write fails fast — including ones that never reach the
	// log — and the injector fired only once: the poison is sticky.
	if _, err := db.LoadDocuments([]string{src}); !errors.Is(err, ErrDegraded) {
		t.Errorf("second load = %v, want fast ErrDegraded", err)
	}
	if err := db.Name("another", 1); !errors.Is(err, ErrDegraded) {
		t.Errorf("Name on degraded db = %v, want ErrDegraded", err)
	}

	// Stats carry the state and the sticky reason.
	st := db.Stats()
	if !st.Degraded || st.DegradedReason == "" {
		t.Errorf("Stats degraded = (%v, %q), want (true, reason)", st.Degraded, st.DegradedReason)
	}
	if degraded, reason := db.DegradedState(); !degraded || reason != st.DegradedReason {
		t.Errorf("DegradedState = (%v, %q), disagrees with Stats", degraded, reason)
	}

	// The feed still ships the whole durable prefix: followers stay
	// current up to the last real commit of the degraded primary.
	frames, lastSeq, err := db.FeedFrames(0, 0, 1<<20)
	if err != nil || lastSeq != seqPre || len(frames) == 0 {
		t.Fatalf("feed on degraded primary = (%d bytes, seq %d, %v), want the prefix through %d", len(frames), lastSeq, err, seqPre)
	}

	// Online scrub of the degraded directory: the committed prefix is
	// intact.
	rep, err := db.Scrub()
	if err != nil {
		t.Fatalf("Scrub on degraded db: %v", err)
	}
	if rep.LastSeq != seqPre {
		t.Errorf("Scrub.LastSeq = %d, want %d", rep.LastSeq, seqPre)
	}

	// Close drains cleanly, the directory fscks clean, and a reopen
	// recovers exactly the pre-fault epoch.
	if err := db.Close(); err != nil {
		t.Fatalf("Close on degraded db: %v", err)
	}
	fsckRep, err := wal.Fsck(dir, false)
	if err != nil {
		t.Fatalf("fsck after poison: %v", err)
	}
	if !fsckRep.Clean() {
		t.Errorf("fsck after poison not clean: %+v", fsckRep)
	}
	db2 := reopenDurable(t, dir)
	if db2.Epoch() != epochPre || articleCount(t, db2) != countPre {
		t.Errorf("reopen recovered (epoch %d, %d articles), want (%d, %d)", db2.Epoch(), articleCount(t, db2), epochPre, countPre)
	}
	if st := db2.Stats(); st.Degraded {
		t.Error("reopened database still degraded")
	}
}

// TestChaosDiskFaultRewindPoisons is the satellite-1 regression at facade
// level: an append fails after its frame landed and the rewind's truncate
// reports failure. The live process must roll back, degrade, and keep
// serving — the log cannot tell whether the truncate took (the injection
// harness fires after a truncate that did), so it must assume the worst
// and fail closed. Recovery then lands on whichever consistent state the
// disk actually holds; with the harness, the pre-batch one.
func TestChaosDiskFaultRewindPoisons(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	epochPre := db.Epoch()
	countPre := articleCount(t, db)

	disarmA := faultpoint.Arm("wal/post-append", faultpoint.Once(faultpoint.Error(errBoom)))
	defer disarmA()
	disarmT := faultpoint.Arm("wal/rewind-truncate", faultpoint.Once(faultpoint.Error(diskFault("truncate"))))
	defer disarmT()
	_, err := db.LoadDocuments([]string{src})
	if !errors.Is(err, errBoom) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("load = %v, want the injected fault dressed in ErrDegraded (the rewind poisoned)", err)
	}

	// Live process: rolled back, serving, degraded for writes.
	if db.Epoch() != epochPre || articleCount(t, db) != countPre {
		t.Fatalf("live state moved: epoch %d count %d, want %d %d", db.Epoch(), articleCount(t, db), epochPre, countPre)
	}
	if _, err := db.LoadDocuments([]string{src}); !errors.Is(err, ErrDegraded) {
		t.Errorf("post-poison load = %v, want ErrDegraded", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Whatever the disk holds is consistent: fsck reports no corruption
	// and recovery lands on the pre-batch state (the harness's truncate
	// physically succeeded before the injected failure).
	if _, err := wal.Fsck(dir, false); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	db2 := reopenDurable(t, dir)
	if got := articleCount(t, db2); got != countPre {
		t.Errorf("recovery has %d titles, want the pre-fault %d", got, countPre)
	}
	if db2.Epoch() != epochPre {
		t.Errorf("recovery epoch = %d, want %d", db2.Epoch(), epochPre)
	}
}

// TestChaosDiskFaultCheckpointFailuresSurface is satellite 2: a sick disk
// under the checkpointer must not stay silent. Failures count, the streak
// grows, the last error is recorded, the log stays healthy — and one
// success clears the streak but not the total.
func TestChaosDiskFaultCheckpointFailuresSurface(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)

	disarm := faultpoint.Arm("wal/ckpt-write", faultpoint.Error(diskFault("sync")))
	for i := 1; i <= 2; i++ {
		if err := db.Checkpoint(); !errors.Is(err, wal.ErrDiskFull) {
			t.Fatalf("checkpoint %d under ENOSPC = %v, want ErrDiskFull", i, err)
		}
		st := db.Stats()
		if st.CheckpointFailures != uint64(i) || st.CheckpointFailStreak != uint64(i) || st.LastCheckpointError == "" {
			t.Fatalf("after failure %d: failures=%d streak=%d lastErr=%q", i, st.CheckpointFailures, st.CheckpointFailStreak, st.LastCheckpointError)
		}
		if st.Degraded {
			t.Fatal("failed checkpoint degraded the database (only the log keeps more history)")
		}
	}
	// The write path is unaffected the whole time.
	if _, err := db.LoadDocuments([]string{src}); err != nil {
		t.Fatalf("load while checkpoints fail: %v", err)
	}
	disarm()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after disarm: %v", err)
	}
	st := db.Stats()
	if st.CheckpointFailures != 2 || st.CheckpointFailStreak != 0 {
		t.Errorf("after recovery: failures=%d streak=%d, want 2, 0", st.CheckpointFailures, st.CheckpointFailStreak)
	}
	if st.CheckpointSeq == 0 {
		t.Error("successful checkpoint not reflected in CheckpointSeq")
	}
}

// TestChaosDiskFaultSweep is satellite 3: every storage-fault site driven
// at its commit-path seam, asserting the shared contract — readers keep
// serving the pre-fault state, nothing unlogged is ever published, and a
// reopen after the fault recovers exactly the pre-fault epoch.
func TestChaosDiskFaultSweep(t *testing.T) {
	cases := []struct {
		name string
		arm  func() func() // arm the site(s); returns disarm
		poke func(db *Database, src string) error
		// degrades: the fault must leave the database read-only.
		degrades bool
	}{
		{
			name: "append-sync",
			arm: func() func() {
				return faultpoint.Arm("wal/append-sync-error", faultpoint.Once(faultpoint.Error(diskFault("sync"))))
			},
			poke: func(db *Database, src string) error {
				_, err := db.LoadDocuments([]string{src})
				return err
			},
			degrades: true,
		},
		{
			name: "append-sync-name",
			arm: func() func() {
				return faultpoint.Arm("wal/append-sync-error", faultpoint.Once(faultpoint.Error(diskFault("sync"))))
			},
			poke:     func(db *Database, _ string) error { return db.Name("second", db.Loader.Documents()[0]) },
			degrades: true,
		},
		{
			name: "checkpoint-temp-write",
			arm: func() func() {
				return faultpoint.Arm("wal/ckpt-write", faultpoint.Once(faultpoint.Error(diskFault("sync"))))
			},
			poke:     func(db *Database, _ string) error { return db.Checkpoint() },
			degrades: false,
		},
		{
			name: "dir-sync-under-truncation",
			arm: func() func() {
				// The checkpoint's own dir sync (first hit) passes; the
				// prefix truncation's (second) fails after the rename, when
				// the old handle already points at the unlinked file.
				return faultpoint.Arm("wal/dir-sync", faultpoint.After(1, faultpoint.Error(diskFault("fsync"))))
			},
			poke:     func(db *Database, _ string) error { return db.Checkpoint() },
			degrades: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := seedDurableDB(t, dir)
			src := articleSrc(t)
			epochPre := db.Epoch()
			countPre := articleCount(t, db)

			disarm := tc.arm()
			err := tc.poke(db, src)
			disarm()
			if err == nil {
				t.Fatalf("%s: armed operation succeeded", tc.name)
			}
			if got := db.Epoch(); got != epochPre {
				t.Fatalf("%s: epoch moved to %d under the fault, want %d", tc.name, got, epochPre)
			}
			if got := articleCount(t, db); got != countPre {
				t.Errorf("%s: reads broke under the fault: %d articles, want %d", tc.name, got, countPre)
			}
			_, loadErr := db.LoadDocuments([]string{src})
			if tc.degrades {
				if !errors.Is(loadErr, ErrDegraded) {
					t.Errorf("%s: load after fault = %v, want ErrDegraded", tc.name, loadErr)
				}
			} else if loadErr != nil {
				t.Errorf("%s: load after fault = %v, want healthy", tc.name, loadErr)
			}
			countLive := articleCount(t, db) // what a reopen must reproduce
			if err := db.Close(); err != nil {
				t.Fatalf("%s: Close: %v", tc.name, err)
			}
			if _, err := wal.Fsck(dir, false); err != nil {
				t.Fatalf("%s: fsck after fault: %v", tc.name, err)
			}
			db2 := reopenDurable(t, dir)
			if got := articleCount(t, db2); got != countLive {
				t.Errorf("%s: recovery has %d titles, the live process served %d", tc.name, got, countLive)
			}
			if st := db2.Stats(); st.Degraded {
				t.Errorf("%s: reopened database still degraded", tc.name)
			}
		})
	}
}
