package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments/exp"
	"repro/internal/experiments/runner"
	"repro/internal/scenario/sink"
)

// runSpec drives a spec through the experiment adapter and engine —
// the only run path since the legacy in-package stream loop was
// removed. The seed defaults to the spec's own, mirroring the CLI.
func runSpec(spec *Spec, snk sink.Sink, seed int64, logW io.Writer) error {
	e, err := Experiment(spec)
	if err != nil {
		return err
	}
	res, err := exp.Run(e, seed, exp.Quick(), exp.Options{Sink: snk})
	if err != nil {
		return err
	}
	if logW != nil {
		res.Print(logW)
	}
	return nil
}

// TestGoldenQuickstartRoundTrip pins the JSON schema: the built-in
// quickstart spec must marshal byte-for-byte to the checked-in golden
// file, and parsing the golden file must reproduce the spec. Any schema
// drift (renamed field, changed default, new required knob) fails here.
func TestGoldenQuickstartRoundTrip(t *testing.T) {
	want, err := os.ReadFile("testdata/quickstart.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := Lookup("quickstart")
	if !ok {
		t.Fatal("quickstart not registered")
	}
	got, err := marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quickstart spec drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	parsed, err := Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, spec) {
		t.Fatalf("parse(golden) != spec:\nparsed: %+v\nspec:   %+v", parsed, spec)
	}
}

// marshal renders a spec the way the golden files are written:
// indented JSON plus a final newline.
func marshal(s *Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	return append(b, '\n'), err
}

// TestBuiltinsMarshalParseRoundTrip round-trips every registered
// scenario through JSON and Parse.
func TestBuiltinsMarshalParseRoundTrip(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Lookup(name)
		b, err := marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		parsed, err := Parse(b)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if !reflect.DeepEqual(parsed, spec) {
			t.Fatalf("%s: round trip drifted:\nparsed: %+v\nspec:   %+v", name, parsed, spec)
		}
	}
}

// TestRunQuickstartEndToEnd executes the quickstart scenario and checks
// the streamed records carry a plan and positive achieved goodput.
func TestRunQuickstartEndToEnd(t *testing.T) {
	spec, _ := Lookup("quickstart")
	mem := new(sink.Memory)
	if err := runSpec(spec, mem, spec.Seed, nil); err != nil {
		t.Fatal(err)
	}
	series := map[string]int{}
	var goodput float64
	for _, rec := range mem.Records() {
		series[rec.Series]++
		if rec.Series == "flow" {
			for _, f := range rec.Fields {
				if f.Key == "goodput_bps" {
					goodput += f.Value.(float64)
				}
			}
		}
	}
	if series["plan"] != 2 || series["flow"] != 2 || series["link"] == 0 {
		t.Fatalf("unexpected series counts: %v", series)
	}
	if goodput <= 0 {
		t.Fatalf("no goodput achieved: %v", goodput)
	}
}

// TestRunUserAuthoredSpec is the end-to-end acceptance path: a spec
// authored as JSON (not from the registry) parses, builds its topology,
// runs traffic and streams results.
func TestRunUserAuthoredSpec(t *testing.T) {
	src := `{
  "name": "user-grid",
  "seed": 5,
  "topology": {"kind": "grid", "nodes": 4, "spacing_m": 80, "rate": "11Mbps"},
  "traffic": [
    {"src": 3, "dst": 0, "transport": "tcp"},
    {"src": 1, "dst": 2, "transport": "cbr", "rate_bps": 300000}
  ],
  "measure": {"duration_sec": 3}
}`
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jl := sink.NewJSONL(&buf)
	if err := runSpec(spec, jl, spec.Seed, nil); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"series":"flow"`) || !strings.Contains(out, `"transport":"tcp"`) {
		t.Fatalf("missing flow records in stream:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, `{"scenario":"user-grid"`) {
			t.Fatalf("malformed record line: %s", line)
		}
	}
}

// TestRunSweepJSONLByteIdenticalAcrossWorkerCounts: a swept scenario's
// record stream must not depend on the worker pool size.
func TestRunSweepJSONLByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec, _ := Lookup("fairness") // 6 plan-only cells over the alpha axis
	render := func(workers int) []byte {
		old := runner.SetWorkers(workers)
		defer runner.SetWorkers(old)
		var buf bytes.Buffer
		jl := sink.NewJSONL(&buf)
		if err := runSpec(spec, jl, spec.Seed, nil); err != nil {
			t.Fatal(err)
		}
		jl.Close()
		return buf.Bytes()
	}
	seq := render(1)
	par := render(max(2, runtime.GOMAXPROCS(0)))
	if len(seq) == 0 {
		t.Fatal("no records streamed")
	}
	if !bytes.Equal(seq, par) {
		t.Fatalf("sweep stream differs across worker counts:\nseq:\n%s\npar:\n%s", seq, par)
	}
}

// TestRunFairnessSweep checks the alpha sweep produces the expected
// fairness trend: alpha=0 starves the long flow, large alpha feeds it.
func TestRunFairnessSweep(t *testing.T) {
	spec, _ := Lookup("fairness")
	mem := new(sink.Memory)
	if err := runSpec(spec, mem, spec.Seed, nil); err != nil {
		t.Fatal(err)
	}
	// plan records carry output_bps per flow; find flow 2 (the 4-hop
	// flow) at alpha=0 and alpha=16.
	rate := map[float64]float64{}
	for _, rec := range mem.Records() {
		if rec.Series != "plan" {
			continue
		}
		var alpha, out float64
		var flow int
		for _, f := range rec.Fields {
			switch f.Key {
			case "alpha":
				alpha = f.Value.(float64)
			case "flow":
				flow = f.Value.(int)
			case "output_bps":
				out = f.Value.(float64)
			}
		}
		if flow == 2 {
			rate[alpha] = out
		}
	}
	if len(rate) != 6 {
		t.Fatalf("expected 6 alpha points for flow 2, got %v", rate)
	}
	if !(rate[16] > rate[0]) {
		t.Fatalf("4-hop flow should gain with alpha: alpha=0 %.0f, alpha=16 %.0f", rate[0], rate[16])
	}
}

// TestRunFigureSpec drives the fig10 registry entry through the engine.
func TestRunFigureSpec(t *testing.T) {
	spec, _ := Lookup("fig10")
	mem := new(sink.Memory)
	var log bytes.Buffer
	if err := runSpec(spec, mem, 4, &log); err != nil {
		t.Fatal(err)
	}
	if len(mem.Records()) == 0 {
		t.Fatal("fig10 streamed no records")
	}
	if !strings.Contains(log.String(), "Figure 10") {
		t.Fatalf("fig10 summary missing: %s", log.String())
	}
}

// TestValidateRejects covers the schema guard rails.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown field", `{"name":"x","topology":{"kind":"chain","nodes":3,"spacing_m":70,"rate":"11Mbps"},"measure":{"duration_sec":1},"bogus":1}`, "bogus"},
		{"unknown kind", `{"name":"x","topology":{"kind":"torus","rate":"11Mbps"},"measure":{"duration_sec":1}}`, "topology kind"},
		{"bad rate", `{"name":"x","topology":{"kind":"chain","nodes":3,"spacing_m":70,"rate":"3Mbps"},"measure":{"duration_sec":1}}`, "rate"},
		{"flow out of range", `{"name":"x","topology":{"kind":"chain","nodes":3,"spacing_m":70,"rate":"11Mbps"},"traffic":[{"src":0,"dst":9,"transport":"tcp"}],"measure":{"duration_sec":1}}`, "out of range"},
		{"bad axis", `{"name":"x","topology":{"kind":"chain","nodes":3,"spacing_m":70,"rate":"11Mbps"},"traffic":[{"src":0,"dst":1,"transport":"tcp"}],"measure":{"duration_sec":1},"sweep":[{"name":"phase","values":[1]}]}`, "sweep axis"},
		{"unregistered figure", `{"name":"x","figure":99}`, "no registered experiment"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestNaNGoodputSerializes: cbr background flows report NaN goodput,
// which the JSONL sink must encode as null rather than erroring.
func TestNaNGoodputSerializes(t *testing.T) {
	var buf bytes.Buffer
	jl := sink.NewJSONL(&buf)
	if err := jl.Write(sink.Record{Scenario: "x", Series: "flow", Fields: []sink.Field{
		sink.F("goodput_bps", math.NaN()),
	}}); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	if !strings.Contains(buf.String(), `"goodput_bps":null`) {
		t.Fatalf("NaN not encoded as null: %s", buf.String())
	}
}

// TestLookupAndNames covers the registry surface.
func TestLookupAndNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"quickstart", "capacity", "fairness", "starvation", "fig10", "fig14"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
		if _, ok := Lookup(want); !ok {
			t.Errorf("Lookup(%q) failed", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}
