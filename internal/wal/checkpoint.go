package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sgmldb/internal/faultpoint"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
)

// A checkpoint is a full serialization of one published database version:
// everything recovery needs so the log prefix up to the checkpoint's
// sequence number can be dropped. It is written to a temp file and
// renamed into place, so a crash mid-checkpoint leaves at worst a stray
// temp file that recovery ignores.

// Version 2 added the term line (promotion epoch at capture).
const checkpointMagic = "sgmldb-checkpoint 2"

// checkpointMagicV1 is the pre-term version 1 header; see logMagicV1.
const checkpointMagicV1 = "sgmldb-checkpoint 1"

// snapshotMagicV1 is the first line of the retired store-only snapshot
// files Database.Save wrote before a snapshot became a checkpoint: a bare
// store section with no DTD, document list or index around it.
const snapshotMagicV1 = "sgmldb-snapshot 1"

var (
	fpCkptWrite  = faultpoint.New("wal/checkpoint-write")  // mid-checkpoint, temp file partially written
	fpCkptRename = faultpoint.New("wal/checkpoint-rename") // temp file durable, not yet renamed
	fpCkptSync   = faultpoint.New("wal/ckpt-write")        // the temp file's write/fsync reports an I/O error
)

// Checkpoint carries one published version across the serialization
// boundary: the instance and index pointers are the immutable published
// versions (never mutated after publish), so the checkpointer can encode
// them concurrently with new staged writes.
type Checkpoint struct {
	Seq   uint64 // last log sequence number the checkpoint covers
	Epoch uint64 // published epoch at capture
	Term  uint64 // promotion term at capture
	DTD   string // the DTD the database was opened with
	Docs  []uint64
	Inst  *store.Instance
	Index *text.Index
}

func checkpointName(seq uint64) string {
	return fmt.Sprintf("checkpoint-%020d", seq)
}

// parseCheckpointName extracts the sequence number, or ok=false for
// files that are not checkpoints (the log, temp files, strays).
func parseCheckpointName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "checkpoint-")
	if !ok || strings.Contains(rest, ".") {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// EncodeCheckpoint writes ck's serialization to w: the envelope (magic,
// seq, epoch, term, DTD, document list) followed by the store and index
// sections. It is the one encoding of a database version — checkpoint
// files, follower bootstrap bodies and Database.Save snapshots are all
// these bytes, and DecodeCheckpoint reads them back.
func EncodeCheckpoint(w io.Writer, ck *Checkpoint) error {
	if err := encodeEnvelope(w, ck); err != nil {
		return err
	}
	return encodeSections(w, ck)
}

// encodeEnvelope writes everything ahead of the store section.
func encodeEnvelope(w io.Writer, ck *Checkpoint) error {
	if _, err := fmt.Fprintf(w, "%s\nseq %d\nepoch %d\nterm %d\ndtd %d\n%s\ndocs %d\n",
		checkpointMagic, ck.Seq, ck.Epoch, ck.Term, len(ck.DTD), ck.DTD, len(ck.Docs)); err != nil {
		return err
	}
	for _, o := range ck.Docs {
		if _, err := fmt.Fprintf(w, "o %d\n", o); err != nil {
			return err
		}
	}
	return nil
}

// encodeSections writes the store and index sections and the end marker.
func encodeSections(w io.Writer, ck *Checkpoint) error {
	if err := store.Save(w, ck.Inst); err != nil {
		return err
	}
	if err := ck.Index.Encode(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "end")
	return err
}

// WriteCheckpoint serializes ck into dir under its sequence-numbered
// name, durably (temp file, fsync, rename, directory fsync), then prunes
// older checkpoint files. It does not truncate the log — the caller does
// that after this returns, so a crash between the two leaves a log whose
// replayed prefix the checkpoint already covers (replay skips by seq).
func WriteCheckpoint(dir string, ck *Checkpoint) error {
	tmp, err := os.CreateTemp(dir, "checkpoint.tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	err = writeCheckpointTemp(tmp, ck)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := fpCkptRename.Hit(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	final := filepath.Join(dir, checkpointName(ck.Seq))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	pruneCheckpoints(dir, ck.Seq)
	return nil
}

// writeCheckpointTemp encodes ck into the temp file and fsyncs it.
func writeCheckpointTemp(tmp *os.File, ck *Checkpoint) error {
	w := bufio.NewWriter(tmp)
	if err := encodeEnvelope(w, ck); err != nil {
		return err
	}
	// Flush the envelope so a crash copied at this seam sees a genuinely
	// partial checkpoint file — the envelope and nothing after it —
	// whatever the checkpoint's size.
	if err := w.Flush(); err != nil {
		return err
	}
	if err := fpCkptWrite.Hit(); err != nil {
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := encodeSections(w, ck); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	err := tmp.Sync()
	if ferr := fpCkptSync.Hit(); err == nil && ferr != nil {
		err = ferr
	}
	if err != nil {
		return fmt.Errorf("wal: checkpoint temp sync: %w", classify(err))
	}
	return nil
}

// pruneCheckpoints removes checkpoint files older than keepSeq and any
// leftover temp files. Best-effort: a failure here only wastes disk.
func pruneCheckpoints(dir string, keepSeq uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "checkpoint.tmp-") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseCheckpointName(name); ok && seq < keepSeq {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// newestCheckpoint finds and decodes the newest valid checkpoint in dir.
// An unreadable or truncated checkpoint file (a crash can leave one only
// via a torn rename, which modern filesystems don't produce, but be
// lenient) is skipped in favour of an older one. Returns nil if none.
func newestCheckpoint(dir string) (*Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseCheckpointName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		ck, err := ReadCheckpoint(filepath.Join(dir, checkpointName(seq)))
		if err == nil {
			return ck, nil
		}
	}
	return nil, nil
}

// ReadCheckpoint decodes one checkpoint file: a data directory's
// checkpoint-<seq>, or a snapshot written by Database.Save.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}

// NewestCheckpointPath returns the path and sequence number of the newest
// checkpoint file in dir, or ("", 0, nil) when none exists. Callers
// stream the file as-is (a follower bootstrap); the open file survives a
// concurrent prune's unlink, so racing the checkpointer is safe as long
// as the caller opens promptly.
func NewestCheckpointPath(dir string) (string, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	var best uint64
	found := false
	for _, e := range entries {
		if seq, ok := parseCheckpointName(e.Name()); ok && (!found || seq > best) {
			best = seq
			found = true
		}
	}
	if !found {
		return "", 0, nil
	}
	return filepath.Join(dir, checkpointName(best)), best, nil
}

// DecodeCheckpoint decodes one serialized checkpoint from rd — the bytes
// EncodeCheckpoint produces, whether read from a checkpoint file, a saved
// snapshot or a follower's bootstrap fetch.
func DecodeCheckpoint(rd io.Reader) (*Checkpoint, error) {
	r := bufio.NewReader(rd)
	line, err := readCkptLine(r)
	if err != nil {
		return nil, err
	}
	if line != checkpointMagic {
		switch line {
		case checkpointMagicV1:
			return nil, fmt.Errorf("%w: checkpoint written by format v1 (pre-term); rebuild the directory under the current format", ErrUnsupportedVersion)
		case snapshotMagicV1:
			return nil, fmt.Errorf("%w: store-only snapshot file (pre-checkpoint format); reload the documents and save again", ErrUnsupportedVersion)
		}
		return nil, fmt.Errorf("wal: not a checkpoint file (got %q)", line)
	}
	ck := &Checkpoint{}
	if ck.Seq, err = ckptUintLine(r, "seq"); err != nil {
		return nil, err
	}
	if ck.Epoch, err = ckptUintLine(r, "epoch"); err != nil {
		return nil, err
	}
	if ck.Term, err = ckptUintLine(r, "term"); err != nil {
		return nil, err
	}
	dtdLen, err := ckptUintLine(r, "dtd")
	if err != nil {
		return nil, err
	}
	if dtdLen > maxRecordSize {
		return nil, fmt.Errorf("wal: checkpoint dtd length %d too large", dtdLen)
	}
	dtd := make([]byte, dtdLen)
	if _, err := io.ReadFull(r, dtd); err != nil {
		return nil, err
	}
	ck.DTD = string(dtd)
	if b, err := r.ReadByte(); err != nil || b != '\n' {
		return nil, fmt.Errorf("wal: checkpoint dtd not newline-terminated")
	}
	nDocs, err := ckptUintLine(r, "docs")
	if err != nil {
		return nil, err
	}
	if nDocs > maxRecordSize {
		return nil, fmt.Errorf("wal: checkpoint claims %d docs", nDocs)
	}
	ck.Docs = make([]uint64, 0, nDocs)
	for i := uint64(0); i < nDocs; i++ {
		o, err := ckptUintLine(r, "o")
		if err != nil {
			return nil, err
		}
		ck.Docs = append(ck.Docs, o)
	}
	// store.Load wraps its reader in bufio.NewReader, which hands back an
	// existing *bufio.Reader unchanged — so it consumes exactly its
	// section and leaves r positioned at the index section.
	if ck.Inst, err = store.Load(r); err != nil {
		return nil, fmt.Errorf("wal: checkpoint instance: %w", err)
	}
	if ck.Index, err = text.DecodeIndex(r); err != nil {
		return nil, fmt.Errorf("wal: checkpoint index: %w", err)
	}
	line, err = readCkptLine(r)
	if err != nil {
		return nil, err
	}
	if line != "end" {
		return nil, fmt.Errorf("wal: checkpoint missing end (got %q)", line)
	}
	return ck, nil
}

func readCkptLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && line != "" {
		return strings.TrimRight(line, "\n"), nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

func ckptUintLine(r *bufio.Reader, verb string) (uint64, error) {
	line, err := readCkptLine(r)
	if err != nil {
		return 0, err
	}
	rest, ok := strings.CutPrefix(line, verb+" ")
	if !ok {
		return 0, fmt.Errorf("wal: expected %q line, got %q", verb, line)
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: bad %s value %q", verb, rest)
	}
	return n, nil
}

// Open prepares a data directory: it loads the newest valid checkpoint
// (nil if none), opens the log, validates it end to end, truncates a torn
// tail, and returns the records the checkpoint does not cover, in order.
// The caller replays those records to reconstruct the last durable state.
func Open(dir string) (*Log, *Checkpoint, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	ck, err := newestCheckpoint(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var after uint64
	if ck != nil {
		after = ck.Seq
	}
	l, tail, err := openLog(dir, after)
	if err != nil {
		return nil, nil, nil, err
	}
	if ck != nil && l.seq < ck.Seq {
		// The log was truncated past ck.Seq by a prefix truncation that
		// raced a crash; the checkpoint is still the durable state and the
		// next append must not reuse covered sequence numbers.
		l.seq = ck.Seq
		l.floor = ck.Seq
	}
	if ck != nil {
		// The checkpoint's term anchors whatever the log scan could not
		// see: an empty (or fully truncated) log inherits the checkpoint's
		// term, and the truncation floor gets its term for anchor checks.
		if ck.Term > l.term {
			l.term = ck.Term
		}
		if l.floor == ck.Seq && ck.Term > l.floorTerm {
			l.floorTerm = ck.Term
		}
	}
	return l, ck, tail, nil
}

// TruncatePrefix drops log records at or before seq; the facade's
// checkpointer calls it once a checkpoint covering seq is durable.
func (l *Log) TruncatePrefix(seq uint64) error {
	return l.truncatePrefix(seq)
}
