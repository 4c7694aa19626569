package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Fsck is the offline integrity checker behind cmd/sgmldbfsck. It never
// runs against a live database: it opens the data directory cold,
// validates every checkpoint and every log frame, and classifies what it
// finds into three buckets — clean, recoverable crash damage (a torn log
// tail, a partial checkpoint temp file, an undecodable newer checkpoint
// with a valid older one behind it), and real corruption (damage inside
// the committed prefix, a sequence gap, a log that starts past what the
// newest valid checkpoint covers).
//
// With repair=false the directory is never written. With repair=true the
// recoverable bucket is fixed the same way recovery would fix it —
// truncate the torn tail on a clean frame edge, delete stray temp files
// and undecodable checkpoints — and the report says what was done. Real
// corruption is never repaired; it returns an error wrapping
// ErrCorruptLog so the operator restores from a replica instead.

// FsckReport is what Fsck found (and, under repair, fixed).
type FsckReport struct {
	CheckpointSeq  uint64 // newest valid checkpoint's sequence, 0 if none
	CheckpointTerm uint64 // newest valid checkpoint's term, 0 if none
	Checkpoints    int    // valid checkpoint files
	BadCheckpoints int    // undecodable checkpoint files (skipped by recovery)
	Frames         int    // valid log frames
	LastSeq        uint64 // last valid log sequence number
	FirstTerm      uint64 // term of the first log frame (0 when no frames)
	LastTerm       uint64 // term of the last valid log frame (0 when no frames)
	TermBumps      int    // promotion boundaries inside the log (term changes between frames)
	TornTail       bool   // log ends in crash damage confined to the final frame
	TornOffset     int64  // offset of the torn frame (valid when TornTail)
	StrayTemps     int    // leftover checkpoint/log temp files
	Repaired       bool   // repair mode changed the directory
}

// Clean reports whether the directory needs no attention at all.
func (r *FsckReport) Clean() bool {
	return !r.TornTail && r.BadCheckpoints == 0 && r.StrayTemps == 0
}

// Fsck validates the data directory at dir. See the package comment above
// for the verify/repair contract. The returned report is non-nil whenever
// the directory could be enumerated, even alongside a corruption error, so
// the caller can say how far validation got.
func Fsck(dir string, repair bool) (*FsckReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{}

	// Pass 1: stray temp files. Recovery ignores them; repair deletes them.
	var ckptSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "checkpoint.tmp-") || strings.HasPrefix(name, logName+".tmp-") {
			rep.StrayTemps++
			if repair {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return rep, err
				}
				rep.Repaired = true
			}
			continue
		}
		if seq, ok := parseCheckpointName(name); ok {
			ckptSeqs = append(ckptSeqs, seq)
		}
	}

	// Pass 2: checkpoints, newest first. The newest fully-decodable one is
	// the recovery floor; undecodable ones are crash leftovers that repair
	// removes so they cannot shadow the real floor.
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] > ckptSeqs[j] })
	for _, seq := range ckptSeqs {
		path := filepath.Join(dir, checkpointName(seq))
		ck, err := ReadCheckpoint(path)
		if err != nil {
			if errors.Is(err, ErrUnsupportedVersion) {
				// An old-format checkpoint is healthy data, not a crash
				// leftover: never delete it, report the migration problem.
				return rep, err
			}
			rep.BadCheckpoints++
			if repair {
				if err := os.Remove(path); err != nil {
					return rep, err
				}
				rep.Repaired = true
			}
			continue
		}
		if rep.Checkpoints == 0 {
			rep.CheckpointSeq = seq
			rep.CheckpointTerm = ck.Term
		}
		rep.Checkpoints++
	}

	// Pass 3: the log, frame by frame, with openLog's exact taxonomy —
	// but read-only unless repairing.
	if err := fsckLog(dir, rep, repair); err != nil {
		return rep, err
	}

	if repair && rep.Repaired {
		if err := syncDir(dir); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func fsckLog(dir string, rep *FsckReport, repair bool) error {
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		// No log at all: a directory that never committed past its newest
		// checkpoint (recovery creates a fresh log on open).
		rep.LastSeq = rep.CheckpointSeq
		return nil
	}
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(data, []byte(logMagic)) {
		if bytes.HasPrefix(data, []byte(logMagicV1)) {
			// Old-format data is a migration problem, not damage: neither
			// bucket of repairable-vs-corrupt applies.
			return fmt.Errorf("%w: log written by format v1 (pre-term); rebuild the directory under the current format", ErrUnsupportedVersion)
		}
		if len(data) < len(logMagic) && bytes.HasPrefix([]byte(logMagic), data) {
			// Crash while stamping a fresh log: torn at offset 0, repair
			// restamps exactly as recovery would.
			rep.TornTail = true
			rep.TornOffset = 0
			rep.LastSeq = rep.CheckpointSeq
			if repair {
				if err := restampLogFile(path); err != nil {
					return err
				}
				rep.Repaired = true
			}
			return nil
		}
		return fmt.Errorf("%w: bad log header", ErrCorruptLog)
	}

	off := len(logMagic)
	var lastSeq, lastTerm uint64
	first := true
	for off < len(data) {
		rec, n, err := DecodeFrame(data[off:])
		if err != nil {
			if !isTornTail(data, off, n, err) {
				return fmt.Errorf("%w: record at offset %d: %w", ErrCorruptLog, off, err)
			}
			rep.TornTail = true
			rep.TornOffset = int64(off)
			if repair {
				if err := truncateLogFile(path, int64(off)); err != nil {
					return err
				}
				rep.Repaired = true
			}
			break
		}
		if first {
			if rec.Seq == 0 || rec.Seq > rep.CheckpointSeq+1 {
				return fmt.Errorf("%w: log starts at sequence %d, checkpoint covers %d", ErrCorruptLog, rec.Seq, rep.CheckpointSeq)
			}
			rep.FirstTerm = rec.Term
			first = false
		} else if rec.Seq != lastSeq+1 {
			return fmt.Errorf("%w: sequence jump %d -> %d at offset %d", ErrCorruptLog, lastSeq, rec.Seq, off)
		} else if rec.Term != lastTerm {
			if rec.Term < lastTerm {
				// The term chain is monotone by construction; a regression
				// means frames from divergent histories were spliced. Never
				// repairable: the boundary cannot be crossed by truncation.
				return fmt.Errorf("%w: term regression %d -> %d at offset %d", ErrCorruptLog, lastTerm, rec.Term, off)
			}
			rep.TermBumps++
		}
		lastSeq = rec.Seq
		lastTerm = rec.Term
		rep.LastTerm = rec.Term
		rep.Frames++
		off += n
	}
	rep.LastSeq = lastSeq
	if rep.Frames == 0 {
		rep.LastSeq = rep.CheckpointSeq
	}
	return nil
}

func truncateLogFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

func restampLogFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return restampMagic(f)
}
