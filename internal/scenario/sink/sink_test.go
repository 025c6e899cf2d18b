package sink

import (
	"bytes"
	"encoding/csv"
	"math"
	"reflect"
	"strings"
	"testing"
)

func rec(series string, cell int, fields ...Field) Record {
	return Record{Scenario: "test", Series: series, Cell: cell, Fields: fields}
}

func TestJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	if err := s.Write(rec("a", 0, F("x", 1.5), F("name", "hi"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(rec("a", 1, F("x", math.NaN()))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"scenario":"test","series":"a","cell":0,"x":1.5,"name":"hi"}
{"scenario":"test","series":"a","cell":1,"x":null}
`
	if buf.String() != want {
		t.Fatalf("JSONL output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestJSONLDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		s := NewJSONL(&buf)
		for i := 0; i < 10; i++ {
			s.Write(rec("s", i, F("v", float64(i)/3), F("flag", i%2 == 0)))
		}
		s.Close()
		return buf.String()
	}
	if render() != render() {
		t.Fatal("JSONL output is not deterministic")
	}
}

func TestCSVHeaderPerSeries(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	s.Write(rec("a", 0, F("x", 1.25)))
	s.Write(rec("a", 1, F("x", 2.5)))
	s.Write(rec("b", 0, F("y", "z")))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"scenario,series,cell,x",
		"test,a,0,1.25",
		"test,a,1,2.5",
		"scenario,series,cell,y",
		"test,b,0,z",
	}
	if len(lines) != len(want) {
		t.Fatalf("CSV lines: %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("CSV line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestCSVHeaderOnSchemaChange: records in one series with different
// field sets (e.g. a skipped fig14 config's short record) must get a
// fresh header so values never land under the wrong columns.
func TestCSVHeaderOnSchemaChange(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	s.Write(rec("config", 0, F("skipped", false), F("ratio", 1.25)))
	s.Write(rec("config", 1, F("skipped", true)))
	s.Write(rec("config", 2, F("skipped", false), F("ratio", 0.5)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"scenario,series,cell,skipped,ratio",
		"test,config,0,false,1.25",
		"scenario,series,cell,skipped",
		"test,config,1,true",
		"scenario,series,cell,skipped,ratio",
		"test,config,2,false,0.5",
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("CSV lines: %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("CSV line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestCSVQuoting: field values containing commas, quotes or newlines
// must be quoted/escaped per RFC 4180 so a row always parses back to the
// values that were written.
func TestCSVQuoting(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	awkward := []string{
		`plain`,
		`comma, separated`,
		`has "quotes" inside`,
		`mixed, "both", of them`,
		"embedded\nnewline",
		`trailing space `,
	}
	for i, v := range awkward {
		if err := s.Write(rec("quoting", i, F("value", v), F("x", 1.5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Raw bytes: the comma-bearing value must have been quoted, and the
	// inner quotes doubled.
	out := buf.String()
	if !strings.Contains(out, `"comma, separated"`) {
		t.Fatalf("comma value not quoted:\n%s", out)
	}
	if !strings.Contains(out, `"has ""quotes"" inside"`) {
		t.Fatalf("quotes not escaped:\n%s", out)
	}
	// Round trip: a standard CSV reader recovers every value exactly.
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not re-parse: %v\n%s", err, out)
	}
	if len(rows) != 1+len(awkward) {
		t.Fatalf("got %d rows, want header + %d", len(rows), len(awkward))
	}
	for i, v := range awkward {
		if got := rows[1+i][3]; got != v {
			t.Errorf("row %d value = %q, want %q", i, got, v)
		}
	}
}

// TestJSONLStringEscaping covers the JSONL side of the same concern.
func TestJSONLStringEscaping(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	v := "line\nbreak, \"quoted\" and unicode ✓"
	if err := s.Write(rec("esc", 0, F("value", v))); err != nil {
		t.Fatal(err)
	}
	s.Close()
	recs, err := DecodeJSONLStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Text("value") != v {
		t.Fatalf("escaped string did not round trip: %+v", recs)
	}
}

// TestDecodeJSONLRoundTrip pins the wire-format inverse the shard/merge
// machinery relies on: a record written as JSONL decodes back with the
// header, field order, and values intact (numerics as float64).
func TestDecodeJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	orig := Record{Scenario: "rt", Series: "cell", Cell: 5, Fields: []Field{
		F("f", 0.1),
		F("neg", -3.25e-9),
		F("i", 42),
		F("b", true),
		F("s", "hi, \"there\""),
		F("arr", []float64{1, 0.5, -2}),
		F("empty", []float64{}),
		F("nan", math.NaN()),
		// Payload may legally reuse header names.
		F("cell", 99),
	}}
	if err := s.Write(orig); err != nil {
		t.Fatal(err)
	}
	s.Close()
	line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	got, err := DecodeJSONL(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != "rt" || got.Series != "cell" || got.Cell != 5 {
		t.Fatalf("header drifted: %+v", got)
	}
	wantKeys := []string{"f", "neg", "i", "b", "s", "arr", "empty", "nan", "cell"}
	if len(got.Fields) != len(wantKeys) {
		t.Fatalf("got %d fields, want %d: %+v", len(got.Fields), len(wantKeys), got.Fields)
	}
	for i, k := range wantKeys {
		if got.Fields[i].Key != k {
			t.Fatalf("field %d key %q, want %q (order must be preserved)", i, got.Fields[i].Key, k)
		}
	}
	// Accessor-level equivalence between the in-process and decoded
	// views — the property reductions depend on.
	for _, key := range []string{"f", "neg", "i", "cell"} {
		if a, b := orig.Float(key), got.Float(key); a != b {
			t.Errorf("Float(%q): %v != %v", key, a, b)
		}
	}
	if !got.Bool("b") || got.Text("s") != `hi, "there"` {
		t.Errorf("bool/string drifted: %+v", got)
	}
	if !reflect.DeepEqual(got.Floats("arr"), []float64{1, 0.5, -2}) {
		t.Errorf("Floats(arr) = %v", got.Floats("arr"))
	}
	if f := got.Floats("empty"); f == nil || len(f) != 0 {
		t.Errorf("Floats(empty) = %#v, want empty non-nil", f)
	}
	if !math.IsNaN(got.Float("nan")) {
		t.Errorf("NaN did not round trip via null: %v", got.Float("nan"))
	}
	// Re-encoding the decoded record must reproduce the original line —
	// merge relies on verbatim lines, but this pins that a re-serialize
	// path would agree too.
	var buf2 bytes.Buffer
	s2 := NewJSONL(&buf2)
	if err := s2.Write(got); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if got, want := buf2.String(), buf.String(); got != want {
		t.Fatalf("re-encoded line differs:\ngot:  %swant: %s", got, want)
	}
}

func TestDecodeJSONLRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`[1,2]`,
		`{"series":"x","scenario":"y","cell":0}`, // header order is the wire format
		`{"scenario":"x","series":"y","cell":"z"}`,
		`not json`,
		// Two records glued by a lost newline are not one record.
		`{"scenario":"x","series":"y","cell":0,"x":1}{"scenario":"x","series":"y","cell":1,"x":1}`,
		// The cell is an integer literal, not a number truncated to one.
		`{"scenario":"x","series":"y","cell":1.7}`,
		`{"scenario":"x","series":"y","cell":1e300}`,
		`{"scenario":"x","series":"y"}`, // no cell at all
	} {
		if _, err := DecodeJSONL([]byte(bad)); err == nil {
			t.Errorf("DecodeJSONL(%q) accepted", bad)
		}
	}
}

func TestMemoryCollects(t *testing.T) {
	m := new(Memory)
	m.Write(rec("a", 0, F("x", 1)))
	m.Write(rec("a", 1, F("x", 2)))
	if got := m.Records(); len(got) != 2 || got[1].Cell != 1 {
		t.Fatalf("memory records: %+v", got)
	}
	if err := Discard.Write(rec("a", 0)); err != nil {
		t.Fatal(err)
	}
}
