package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestResolveJobGoldens pins the dist.Job each target form resolves
// to. That JSON is the submit body and run.json's job, so a change here
// orphans existing cache entries and run directories.
func TestResolveJobGoldens(t *testing.T) {
	spec, err := os.ReadFile("../../examples/broadcast.json")
	if err != nil {
		t.Fatal(err)
	}
	var inline bytes.Buffer
	if err := json.Compact(&inline, spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, want string }{
		{"10", `{"experiment":"fig10","seed":1,"scale":"quick","shards":0}`},
		{"fig10", `{"experiment":"fig10","seed":1,"scale":"quick","shards":0}`},
		{"7", `{"experiment":"netvalid","seed":1,"scale":"quick","shards":0}`},
		{"fig7", `{"experiment":"netvalid","seed":1,"scale":"quick","shards":0}`},
		{"netvalid", `{"experiment":"netvalid","seed":1,"scale":"quick","shards":0}`},
		{"quickstart", `{"experiment":"quickstart","seed":42,"scale":"quick","shards":0}`},
		{"fairness -seed 9", `{"experiment":"fairness","seed":9,"scale":"quick","shards":0}`},
		{"broadcast", `{"experiment":"broadcast","seed":1,"scale":"quick","shards":0}`},
		{"../../examples/broadcast.json", `{"experiment":"broadcast-demo","spec":` + inline.String() + `,"seed":21,"scale":"quick","shards":0}`},
		{"14 -scale paper", `{"experiment":"fig14","seed":1,"scale":"paper","shards":0}`},
	} {
		f := newFlags("fig", "<target> [flags]", withTarget|withShards)
		target, _, ok := f.parseTarget(strings.Fields(tc.args))
		if !ok {
			t.Fatalf("%s: parse failed", tc.args)
		}
		j, err := f.resolve(target)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		got, err := json.Marshal(j.Job)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s resolves to\n %s\nwant\n %s", tc.args, got, tc.want)
		}
	}
}
