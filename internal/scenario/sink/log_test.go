package sink

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func logLine(cell int) string {
	return fmt.Sprintf(`{"scenario":"t","series":"cell","cell":%d,"v":%d.5}`+"\n", cell, cell)
}

// sealed builds the bytes of a sealed log whose marker vouches for
// hashed — which a damaged file's record region need not equal.
func sealed(region, hashed string, records int) []byte {
	sum := sha256.Sum256([]byte(hashed))
	return []byte(region + DoneMarker(records, sum[:]) + "\n")
}

func writeFile(t testing.TB, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLog seals a log of n cells at path through the Log writer and
// returns the file's bytes.
func writeLog(t testing.TB, path string, n int) []byte {
	t.Helper()
	lg, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := lg.Write([]byte(logLine(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValidateLogWorksOnRawBytes(t *testing.T) {
	two := logLine(0) + logLine(1)
	good := sealed(two, two, 2)
	cases := []struct {
		name string
		file []byte
		ok   bool
	}{
		{"sealed", good, true},
		{"empty log", sealed("", "", 0), true},
		// The two cases a line-normalising validator accepted: the marker
		// vouches for the clean lines, the file holds something else.
		{"blank line in region", sealed(logLine(0)+"\n"+logLine(1), two, 2), false},
		{"crlf record", sealed(strings.TrimSuffix(logLine(0), "\n")+"\r\n", logLine(0), 1), false},
		// The same damage with a marker computed over the damaged bytes
		// is self-consistent and still not a record log.
		{"blank line, hashed", sealed(logLine(0)+"\n", logLine(0)+"\n", 2), false},
		{"crlf record, hashed", sealed(`{"cell":0}`+"\r\n", `{"cell":0}`+"\r\n", 1), false},
		{"bytes before marker", sealed(two+" ", two, 2), false},
		{"blank before marker", sealed(two+"\n", two, 2), false},
		{"data after marker", append(append([]byte{}, good...), logLine(2)...), false},
		{"blank after marker", append(append([]byte{}, good...), '\n'), false},
		{"marker not terminated", good[:len(good)-1], false},
		{"second marker", append(append([]byte{}, good...), good[len(two):]...), false},
		{"wrong count", sealed(two, two, 3), false},
		{"wrong hash", sealed(two, logLine(0), 2), false},
		{"no marker", []byte(two), false},
		{"empty file", nil, false},
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	for _, tc := range cases {
		writeFile(t, path, tc.file)
		n, size, sum, ok := ValidateLog(path)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			if n != 0 || size != 0 || sum != "" {
				t.Errorf("%s: invalid log reported records=%d bytes=%d sum=%q", tc.name, n, size, sum)
			}
			continue
		}
		region := tc.file[:size]
		want := sha256.Sum256(region)
		if sum != hex.EncodeToString(want[:]) || n != bytes.Count(region, []byte{'\n'}) {
			t.Errorf("%s: records=%d sum=%s do not describe the %d-byte region", tc.name, n, sum, size)
		}
	}
	if _, _, _, ok := ValidateLog(filepath.Join(t.TempDir(), "absent")); ok {
		t.Error("missing file validated")
	}
}

func TestValidateLogRejectsEveryTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	full := writeLog(t, path, 3)
	if n, size, _, ok := ValidateLog(path); !ok || n != 3 || size != int64(len(logLine(0)+logLine(1)+logLine(2))) {
		t.Fatalf("sealed log: records=%d bytes=%d ok=%v", n, size, ok)
	}
	for cut := 0; cut < len(full); cut++ {
		writeFile(t, path, full[:cut])
		if _, _, _, ok := ValidateLog(path); ok {
			t.Fatalf("log truncated to %d of %d bytes validated", cut, len(full))
		}
	}
}

func TestResumeFromEveryLineBoundary(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	want := writeLog(t, filepath.Join(dir, "whole.jsonl"), n)
	path := filepath.Join(dir, "log.jsonl")
	for k := 0; k <= n; k++ {
		// An interrupted writer: k complete lines and a torn one.
		var prefix string
		for i := 0; i < k; i++ {
			prefix += logLine(i)
		}
		writeFile(t, PartPath(path), []byte(prefix+`{"scenario":"t","ser`))
		sum := sha256.Sum256([]byte(prefix))
		for _, expect := range [][]byte{nil, sum[:]} {
			lg, err := ResumeLog(path, int64(len(prefix)), expect)
			if err != nil {
				t.Fatalf("resume at line %d: %v", k, err)
			}
			if lg.Records() != k || lg.Boundary() != int64(len(prefix)) {
				t.Fatalf("resume at line %d: records=%d boundary=%d", k, lg.Records(), lg.Boundary())
			}
			if expect == nil {
				lg.Close() // abandoned again: the part must still resume
				continue
			}
			for i := k; i < n; i++ {
				lg.Write([]byte(logLine(i)))
			}
			if err := lg.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("log resumed at line %d differs from the uninterrupted one:\n%s\nwant:\n%s", k, got, want)
		}
		if _, err := os.Stat(PartPath(path)); !os.IsNotExist(err) {
			t.Fatalf("part file survives the seal: %v", err)
		}
	}
}

func TestResumeRefusesUnverifiedPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	prefix := logLine(0) + logLine(1)
	sum := sha256.Sum256([]byte(prefix))
	flipped := []byte(prefix)
	flipped[5] ^= 1
	for name, tc := range map[string]struct {
		part []byte
		keep int64
		want []byte
	}{
		"flipped byte":   {flipped, int64(len(prefix)), sum[:]},
		"short file":     {[]byte(prefix[:len(prefix)-3]), int64(len(prefix)), sum[:]},
		"not a boundary": {[]byte(prefix), int64(len(prefix) - 3), nil},
	} {
		writeFile(t, PartPath(path), tc.part)
		if lg, err := ResumeLog(path, tc.keep, tc.want); err == nil {
			lg.Close()
			t.Errorf("%s: resumed", name)
		}
	}
	os.Remove(PartPath(path))
	if lg, err := ResumeLog(path, 10, nil); err == nil {
		lg.Close()
		t.Error("missing part resumed at a non-zero offset")
	}
}

func TestSealRefusesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	lg, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	// A line may arrive in pieces; only the whole lines count.
	lg.Write([]byte(logLine(0)[:7]))
	lg.Write([]byte(logLine(0)[7:] + logLine(1)[:9]))
	if lg.Records() != 1 || lg.Boundary() != int64(len(logLine(0))) {
		t.Fatalf("records=%d boundary=%d after one and a half lines", lg.Records(), lg.Boundary())
	}
	if err := lg.Seal(); err == nil {
		t.Fatal("sealed a log ending mid-line")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused seal still published the log: %v", err)
	}
	lg.Write([]byte(logLine(1)[9:]))
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	if n, _, _, ok := ValidateLog(path); !ok || n != 2 {
		t.Fatalf("sealed log: records=%d ok=%v", n, ok)
	}
}

func TestDoneMarkerRoundTrip(t *testing.T) {
	sum := sha256.Sum256([]byte("x"))
	n, hexSum, ok := ParseDoneMarker([]byte(DoneMarker(42, sum[:])))
	if !ok || n != 42 || hexSum != hex.EncodeToString(sum[:]) {
		t.Fatalf("round trip: %d %q %v", n, hexSum, ok)
	}
	good := DoneMarker(1, sum[:])
	for _, bad := range []string{
		"", "#done", "#ready", "#error boom", good + " ", good + "\n", " " + good,
		strings.Replace(good, "records=1", "records=+1", 1),
		strings.Replace(good, "records=1", "records=01", 1),
		strings.Replace(good, "records=1", "records=-1", 1),
		strings.Replace(good, "records=1", "records=", 1),
		strings.ToUpper(good), good[:len(good)-1], good + "0",
		strings.Replace(good, " sha256=", "  sha256=", 1),
	} {
		if _, _, ok := ParseDoneMarker([]byte(bad)); ok {
			t.Errorf("malformed marker %q parsed", bad)
		}
	}
}

// TestScanPartStopsAtGluedLine: a part whose newline between two records
// was flipped holds one line carrying two records. That line is no
// record, so the prefix ends before it — at cell 0 — and the two cells
// it hides are recomputed rather than resumed past.
func TestScanPartStopsAtGluedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	glued := strings.TrimSuffix(logLine(1), "\n") + "X" + logLine(2)
	writeFile(t, PartPath(path), []byte(logLine(0)+glued+logLine(3)))
	want := Prefix{Cells: 1, Records: 1, Bytes: int64(len(logLine(0)))}
	if got := ScanPart(path, false, 10); got != want {
		t.Fatalf("ScanPart = %+v, want %+v", got, want)
	}
}

// TestLogAppendAllocates pins the log's cost model: appending a line
// allocates nothing, and a whole create → append×N → seal cycle costs a
// constant number of allocations whatever N is.
func TestLogAppendAllocates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	line := []byte(logLine(7))
	lg, err := CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if a := testing.AllocsPerRun(200, func() { lg.Write(line) }); a != 0 {
		t.Errorf("appending one line allocates %v times, want 0", a)
	}
	cycle := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			lg, err := CreateLog(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				lg.Write(line)
			}
			if err := lg.Seal(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// One apart is allowed: a longer fsync can make the runtime start a
	// thread. A per-append allocation would show as thousands.
	if small, large := cycle(10), cycle(4000); large > small+1 {
		t.Errorf("create+seal costs %v allocs around 10 appends and %v around 4000", small, large)
	}
}

func FuzzValidateLog(f *testing.F) {
	dir := f.TempDir()
	golden := writeLog(f, filepath.Join(dir, "golden.jsonl"), 3)
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(bytes.Replace(golden, []byte("\n"), []byte("\r\n"), 1))
	f.Add(bytes.Replace(golden, []byte("\n"), []byte("\n\n"), 1))
	f.Add([]byte(DoneMarker(0, sha256.New().Sum(nil)) + "\n"))
	path := filepath.Join(dir, "fuzz.jsonl")
	f.Fuzz(func(t *testing.T, file []byte) {
		writeFile(t, path, file)
		n, size, sum, ok := ValidateLog(path)
		if !ok {
			return
		}
		if size < 0 || size > int64(len(file)) {
			t.Fatalf("record region of %d bytes in a %d-byte file", size, len(file))
		}
		want := sha256.Sum256(file[:size])
		if sum != hex.EncodeToString(want[:]) {
			t.Fatalf("sum %s is not the SHA-256 of the %d-byte record region", sum, size)
		}
		if lines := bytes.Count(file[:size], []byte{'\n'}); lines != n {
			t.Fatalf("records=%d but the record region holds %d lines", n, lines)
		}
	})
}

func FuzzParseDoneMarker(f *testing.F) {
	golden := writeLog(f, filepath.Join(f.TempDir(), "golden.jsonl"), 3)
	lines := bytes.Split(bytes.TrimSuffix(golden, []byte{'\n'}), []byte{'\n'})
	f.Add(lines[len(lines)-1]) // the sealed golden's marker
	f.Add(lines[0])
	f.Add([]byte("#done records=1 sha256=00"))
	f.Fuzz(func(t *testing.T, line []byte) {
		n, sum, ok := ParseDoneMarker(line)
		if !ok {
			return
		}
		raw, err := hex.DecodeString(sum)
		if err != nil || n < 0 || DoneMarker(n, raw) != string(line) {
			t.Fatalf("accepted %q as records=%d sha256=%q, which does not format back to it", line, n, sum)
		}
	})
}
