package sink

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"
	"unicode/utf8"
)

// refDecode is the encoding/json oracle the scanner is fuzzed against:
// a token walk over a line json.Valid accepts, with the record rules
// stated on top — the three header keys in order, a string scenario and
// series, an integer cell that fits an int.
func refDecode(line []byte) (Record, error) {
	var rec Record
	if !json.Valid(line) {
		return rec, fmt.Errorf("not one JSON value")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return rec, fmt.Errorf("not an object")
	}
	pos := 0
	for ; dec.More(); pos++ {
		keyTok, err := dec.Token()
		if err != nil {
			return rec, err
		}
		key := keyTok.(string)
		val, err := refValue(dec)
		if err != nil {
			return rec, err
		}
		switch pos {
		case 0, 1:
			s, isStr := val.(string)
			if key != header[pos] || !isStr {
				return rec, fmt.Errorf("key %d is %q", pos, key)
			}
			if pos == 0 {
				rec.Scenario = s
			} else {
				rec.Series = s
			}
		case 2:
			n, isNum := val.(json.Number)
			if key != "cell" || !isNum {
				return rec, fmt.Errorf("key 2 is %q", key)
			}
			cell, err := strconv.ParseInt(string(n), 10, 0)
			if err != nil {
				return rec, err
			}
			rec.Cell = int(cell)
		default:
			if val, err = refFloat(val); err != nil {
				return rec, err
			}
			rec.Fields = append(rec.Fields, Field{Key: key, Value: val})
		}
	}
	if pos < len(header) {
		return rec, fmt.Errorf("only %d header keys", pos)
	}
	return rec, nil
}

// refFloat turns a payload number into the float64 the decoder yields.
func refFloat(v any) (any, error) {
	if n, isNum := v.(json.Number); isNum {
		f, err := n.Float64()
		return f, err
	}
	return v, nil
}

// refValue reads one value; a number at the top stays json.Number so the
// header can tell an integer literal from a float.
func refValue(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch t := tok.(type) {
	case json.Delim:
		if t == '[' {
			arr := []any{}
			for dec.More() {
				v, err := refValue(dec)
				if err == nil {
					v, err = refFloat(v)
				}
				if err != nil {
					return nil, err
				}
				arr = append(arr, v)
			}
			_, err := dec.Token()
			return arr, err
		}
		var fields []Field
		for dec.More() {
			keyTok, err := dec.Token()
			if err != nil {
				return nil, err
			}
			v, err := refValue(dec)
			if err == nil {
				v, err = refFloat(v)
			}
			if err != nil {
				return nil, err
			}
			fields = append(fields, Field{Key: keyTok.(string), Value: v})
		}
		_, err := dec.Token()
		return fields, err
	}
	return tok, nil
}

// hasObject reports whether a decoded value holds a nested object, which
// JSONL.Write does not write back as one.
func hasObject(v any) bool {
	switch x := v.(type) {
	case []Field:
		return true
	case []any:
		for _, e := range x {
			if hasObject(e) {
				return true
			}
		}
	}
	return false
}

// recordLines reads one line of every registered experiment's and
// built-in scenario's quick stream (the first record of each series).
func recordLines(t testing.TB) [][]byte {
	b, err := os.ReadFile("testdata/records.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
}

// FuzzDecodeJSONL checks the scanner against the encoding/json oracle
// on any input — the two agree on the record or both refuse the line,
// except that the scanner refuses invalid UTF-8 the oracle would patch
// with U+FFFD — checks that Cell accepts exactly the lines Decode does
// with the same cell, and that a decoded record written back by JSONL
// decodes to itself.
func FuzzDecodeJSONL(f *testing.F) {
	for _, line := range recordLines(f) {
		f.Add(line)
	}
	f.Add([]byte(`{"scenario":"x","series":"y","cell":0,"x":1}{"scenario":"x","series":"y","cell":1,"x":1}`))
	f.Add([]byte(` { "scenario" : "sé" , "series":"y","cell":-0,"o":{"a":[1,{"b":null}],"c":{}},"e":[],"f":-1.5e-3 } `))
	f.Add([]byte(`{"scenario":"x","series":"y","cell":1.7}`))
	f.Add([]byte(`{"scenario":"x","series":"😀\ud800","cell":1e300}`))
	var d Decoder
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := d.Decode(line)
		want, refErr := refDecode(line)
		if utf8.Valid(line) {
			if (err == nil) != (refErr == nil) {
				t.Fatalf("Decode err %v, oracle err %v", err, refErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("Decode  %#v\noracle %#v", got, want)
			}
		} else if err == nil && refErr != nil {
			t.Fatalf("Decode accepted a line the oracle refuses: %v", refErr)
		}
		cell, cellErr := Cell(line)
		if (cellErr == nil) != (err == nil) || err == nil && cell != got.Cell {
			t.Fatalf("Cell = %d, %v; Decode cell %d, %v", cell, cellErr, got.Cell, err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		s := NewJSONL(&buf)
		if err := s.Write(got); err != nil {
			t.Fatal(err)
		}
		s.Close()
		again, err := d.Decode(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
		if err != nil {
			t.Fatalf("written record does not decode: %v\n%s", err, buf.Bytes())
		}
		if !hasObject(got.Fields) && !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the record:\n%#v\n%#v", got, again)
		}
	})
}

// TestWriterLinesAreFixedPoints: every line a quick stream holds decodes
// and is written back byte for byte.
func TestWriterLinesAreFixedPoints(t *testing.T) {
	var d Decoder
	for _, line := range recordLines(t) {
		rec, err := d.Decode(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		var buf bytes.Buffer
		s := NewJSONL(&buf)
		if err := s.Write(rec); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if got := bytes.TrimSuffix(buf.Bytes(), []byte("\n")); !bytes.Equal(got, line) {
			t.Errorf("re-encoded line differs:\ngot  %s\nwant %s", got, line)
		}
	}
}

// TestDecodeAllocations pins what decoding a broadcast run line costs:
// checking it builds nothing, and a warm Decoder boxes only the floats
// that are not small integers.
func TestDecodeAllocations(t *testing.T) {
	line := []byte(`{"scenario":"bench-records-1","series":"run","cell":17,"root":4,"policy":"gossip(0.7)","rep":17,"nodes":8,"reached":7,"coverage":0.875,"deliveries":11,"dup_rate":0.36363636363636365,"depth":4}`)
	if n := testing.AllocsPerRun(100, func() {
		if cell, err := Cell(line); err != nil || cell != 17 {
			t.Fatalf("Cell = %d, %v", cell, err)
		}
	}); n != 0 {
		t.Errorf("Cell: %v allocs per line, want 0", n)
	}
	var d Decoder
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.Decode(line); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("Decoder.Decode: %v allocs per line, want ≤ 3", n)
	}
}
