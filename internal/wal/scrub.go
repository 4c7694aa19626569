package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Scrub re-reads the committed log from disk and re-validates every frame
// end to end: header, CRC, and sequence continuity from the truncation
// floor. It is the online integrity check — readers are never touched
// (queries run against published in-memory epochs), and appends are held
// out only for the duration of one sequential file read, the same window
// a feed catch-up read takes. A poisoned log can still be scrubbed as
// long as its handle survived: the committed prefix remains the durable
// truth worth auditing.
func (l *Log) Scrub() (frames int, lastSeq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, 0, fmt.Errorf("wal: scrub: log handle lost: %w", l.err)
	}
	data := make([]byte, l.size)
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return 0, 0, fmt.Errorf("wal: scrub read: %w", classify(err))
	}
	if string(data[:min(len(data), len(logMagic))]) != logMagic {
		return 0, 0, fmt.Errorf("%w: scrub: bad log header", ErrCorruptLog)
	}
	off := len(logMagic)
	last := l.floor
	var lastTerm uint64
	for off < len(data) {
		rec, n, err := DecodeFrame(data[off:])
		if err != nil {
			// Everything under l.size was fsynced by an Append that
			// returned success, so any damage here is corruption — there
			// is no torn-tail excuse inside the committed prefix.
			return frames, last, fmt.Errorf("%w: scrub: frame at offset %d: %w", ErrCorruptLog, off, err)
		}
		if rec.Seq != last+1 {
			return frames, last, fmt.Errorf("%w: scrub: sequence jump %d -> %d at offset %d", ErrCorruptLog, last, rec.Seq, off)
		}
		if rec.Term < lastTerm {
			return frames, last, fmt.Errorf("%w: scrub: term regression %d -> %d at offset %d", ErrCorruptLog, lastTerm, rec.Term, off)
		}
		last = rec.Seq
		lastTerm = rec.Term
		frames++
		off += n
	}
	if last != l.seq {
		return frames, last, fmt.Errorf("%w: scrub: log ends at sequence %d, expected %d", ErrCorruptLog, last, l.seq)
	}
	return frames, last, nil
}

// ScrubCheckpoints fully decodes every checkpoint file in dir and reports
// the newest valid sequence number, how many checkpoints are valid, and
// how many failed to decode. Recovery tolerates bad checkpoints (it falls
// back to an older one), so bad ones are reported, not fatal — the caller
// decides whether a nonzero bad count is alarming.
func ScrubCheckpoints(dir string) (newestSeq uint64, valid, bad int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseCheckpointName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		if _, err := ReadCheckpoint(filepath.Join(dir, checkpointName(seq))); err != nil {
			bad++
			continue
		}
		if valid == 0 {
			newestSeq = seq
		}
		valid++
	}
	return newestSeq, valid, bad, nil
}
