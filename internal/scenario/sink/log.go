package sink

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"strconv"
)

// The record log is the one on-disk format every layer checkpoints in —
// coordinator shard files, serve cache entries, imported runs:
//
//	<record line>\n            JSONL records, as JSONL writes them
//	...
//	#done records=N sha256=H\n the completion marker: N record lines whose
//	                           bytes (newlines included) hash to H
//
// A log accumulates in `<path>.part` and is renamed to `<path>` only by
// Seal, after the marker is written and synced — so a crash at any point
// leaves either a sealed log that validates or a part whose complete
// prefix can be resumed, never a file that looks sealed and is not.

const donePrefix = "#done "

// IsRecord reports whether a scanned line (newline stripped) is a record
// line. Blank lines and '#' control lines — the completion marker, the
// worker protocol's #ready/#error — are not; no record can start with
// '#' because records are JSON objects.
func IsRecord(line []byte) bool { return len(line) > 0 && line[0] != '#' }

// DoneMarker formats the completion marker for records record lines
// whose bytes (newlines included) hash to sum.
func DoneMarker(records int, sum []byte) string {
	return fmt.Sprintf("%srecords=%d sha256=%x", donePrefix, records, sum)
}

// ParseDoneMarker extracts (records, hex sha256) from a completion marker
// line (newline stripped). It accepts exactly what DoneMarker formats: a
// non-negative decimal count without sign or padding and a 64-digit
// lower-case digest.
func ParseDoneMarker(line []byte) (records int, sum string, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(donePrefix+"records="))
	if !ok {
		return 0, "", false
	}
	count, digest, ok := bytes.Cut(rest, []byte(" sha256="))
	records, err := strconv.Atoi(string(count))
	if !ok || err != nil || records < 0 || strconv.Itoa(records) != string(count) || len(digest) != hex.EncodedLen(sha256.Size) {
		return 0, "", false
	}
	for _, c := range digest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return 0, "", false
		}
	}
	return records, string(digest), true
}

// Tally is the accounting behind every record stream that ends in a
// completion marker: an io.Writer that hashes every byte, counts record
// lines and tracks the last line boundary. The zero value is not usable;
// a Log embeds one, and a producer that streams over a transport instead
// of a file (the worker protocol) uses one on its own.
type Tally struct {
	h        hash.Hash
	records  int   // '\n' bytes seen
	size     int64 // bytes seen
	boundary int64 // size just after the last '\n'
}

// NewTally returns an empty tally.
func NewTally() *Tally { return &Tally{h: sha256.New()} }

// Write accounts for p. It never fails.
func (t *Tally) Write(p []byte) (int, error) {
	t.h.Write(p)
	t.size += int64(len(p))
	t.records += bytes.Count(p, []byte{'\n'})
	if i := bytes.LastIndexByte(p, '\n'); i >= 0 {
		t.boundary = t.size - int64(len(p)-i-1)
	}
	return len(p), nil
}

// Records is the number of complete record lines written.
func (t *Tally) Records() int { return t.records }

// Boundary is the byte offset just past the last complete line: the
// length a reader may consume without seeing a torn record.
func (t *Tally) Boundary() int64 { return t.boundary }

// Sum is the SHA-256 of the bytes written so far.
func (t *Tally) Sum() []byte { return t.h.Sum(nil) }

// Marker is the completion marker for the stream so far.
func (t *Tally) Marker() string { return DoneMarker(t.records, t.Sum()) }

// PartPath is where the log at path accumulates until it is sealed.
func PartPath(path string) string { return path + ".part" }

// Log is the writer of one record log. Bytes appended through Write go
// to the part file and the tally in one step; Seal stamps the marker and
// publishes the file under its final name. A Log is used from one
// goroutine.
type Log struct {
	*Tally
	f    *os.File
	path string
}

// CreateLog starts the log at path afresh, discarding any part left
// there.
func CreateLog(path string) (*Log, error) { return ResumeLog(path, 0, nil) }

// ResumeLog reopens the part of the log at path and continues it after
// its first keep bytes: one pass re-hashes that prefix, checks it ends on
// a line boundary and — when want is non-nil — that it hashes to want,
// then cuts the file there. The returned log's count and running hash
// cover the prefix, so the marker Seal writes vouches for the whole
// file however its bytes were assembled. Any failure leaves no log open;
// starting over with CreateLog is always correct.
func ResumeLog(path string, keep int64, want []byte) (*Log, error) {
	f, err := os.OpenFile(PartPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{Tally: NewTally(), f: f, path: path}
	switch _, err = io.CopyN(l.Tally, f, keep); {
	case err != nil:
		err = fmt.Errorf("sink: resume %s: reading the first %d bytes: %w", f.Name(), keep, err)
	case l.boundary != keep:
		err = fmt.Errorf("sink: resume %s: offset %d is not a line boundary", f.Name(), keep)
	case want != nil && !bytes.Equal(l.Sum(), want):
		err = fmt.Errorf("sink: resume %s: first %d bytes do not hash to the expected prefix", f.Name(), keep)
	default:
		err = f.Truncate(keep)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Write appends p to the part file (the read offset ResumeLog left is
// the end of the kept prefix, so plain writes extend it).
func (l *Log) Write(p []byte) (int, error) {
	n, err := l.f.Write(p)
	l.Tally.Write(p[:n])
	return n, err
}

// Seal completes the log: marker, fsync, close, rename from the part
// path to the final one. A log whose last line is unterminated is
// refused — the marker would vouch for a torn record.
func (l *Log) Seal() error {
	if l.boundary != l.size {
		return fmt.Errorf("sink: seal %s: %d bytes after the last complete line", l.path, l.size-l.boundary)
	}
	if _, err := l.f.WriteString(l.Marker() + "\n"); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	return os.Rename(PartPath(l.path), l.path)
}

// Close abandons an unsealed log, leaving the part file for a later
// ResumeLog. It is a no-op after Seal.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// rawLines is a bufio.SplitFunc that yields every line with its '\n'
// still attached and its bytes untouched (bufio.ScanLines drops a '\r'
// the hash must see). An unterminated final fragment is yielded as is;
// the validators below treat it as a torn write.
func rawLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// rawRecord strips the newline from a rawLines token and reports whether
// what is left is a well-formed record line: terminated, not blank, not
// a control line, and free of the raw '\r' a JSONL writer never emits.
func rawRecord(raw []byte) (line []byte, ok bool) {
	line, terminated := bytes.CutSuffix(raw, []byte{'\n'})
	return line, terminated && IsRecord(line) && bytes.IndexByte(line, '\r') < 0
}

// ValidateLog checks a sealed log against its completion marker over the
// file's raw bytes: every line up to the marker must be a well-formed
// record line, their count and SHA-256 must be the marker's, and the
// marker's newline must be the file's last byte. dataBytes is the length
// of the record region — the bytes a consumer may stream verbatim, and
// exactly the bytes sum vouches for. Anything else (truncation at any
// offset, a flipped byte, a blank line, a '\r', data after the marker, no
// marker) reports ok false and the artifact must be recomputed.
func ValidateLog(path string) (records int, dataBytes int64, sum string, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, "", false
	}
	defer f.Close()
	sc := NewLineScanner(f)
	sc.Split(rawLines)
	t := NewTally()
	for sc.Scan() {
		if _, isRec := rawRecord(sc.Bytes()); isRec {
			t.Write(sc.Bytes())
			continue
		}
		// The first line that is not a record must be exactly the marker
		// a writer of the bytes so far would have sealed them with.
		if string(sc.Bytes()) != t.Marker()+"\n" || sc.Scan() || sc.Err() != nil {
			break
		}
		return t.records, t.size, hex.EncodeToString(t.Sum()), true
	}
	return 0, 0, "", false
}

// Prefix describes the complete-cell prefix of an unsealed part.
type Prefix struct {
	Cells   int   // complete cells, gapless from 0
	Records int   // record lines they hold
	Bytes   int64 // their length in the file
}

// ScanPart streams the part of the log at path and returns the prefix of
// complete cells worth resuming from; the zero Prefix means start over.
// Lines must be well-formed record lines that Cell accepts — it checks
// every byte and builds nothing — and cells must be
// gapless from 0. When cells may emit several records (multi) the last
// cell seen is dropped: its completeness is unknowable without the next
// cell's first record. The first line that breaks a rule — a torn final
// write, a flipped byte, a marker or blank that a part never holds — ends
// the prefix; what follows is recomputed, which determinism makes
// byte-identical to what was lost. A prefix of more than totalCells cells
// is a stale part from a different enumeration and is not resumed.
func ScanPart(path string, multi bool, totalCells int) Prefix {
	f, err := os.Open(PartPath(path))
	if err != nil {
		return Prefix{}
	}
	defer f.Close()
	sc := NewLineScanner(f)
	sc.Split(rawLines)
	var keep, seen Prefix // seen: every valid line so far; seen.Cells-1 is the current cell
scan:
	for sc.Scan() {
		line, ok := rawRecord(sc.Bytes())
		if !ok {
			break
		}
		cell, err := Cell(line)
		if err != nil {
			break
		}
		switch {
		case multi && seen.Cells > 0 && cell == seen.Cells-1:
			// another record of the current cell
		case cell == seen.Cells:
			// cell boundary: everything before this line is complete
			keep = seen
			seen.Cells++
		default:
			break scan
		}
		seen.Records++
		seen.Bytes += int64(len(sc.Bytes()))
		if !multi {
			keep = seen
		}
	}
	if keep.Cells > totalCells {
		return Prefix{}
	}
	return keep
}
