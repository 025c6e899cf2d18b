package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExitCodeConventions pins the CLI's exit-code contract across
// every subcommand: 0 ok, 1 runtime failure, 2 bad usage or an unknown
// name. The table calls the subcommand entry points directly (the same
// functions main dispatches to), so the convention cannot drift per
// subcommand without failing here.
func TestExitCodeConventions(t *testing.T) {
	tmp := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Shard streams of an unregistered scenario: merge validates cell
	// coverage without needing a reduction.
	s0 := write("s0.jsonl", `{"scenario":"x","series":"cell","cell":0,"v":1}`+"\n")
	s1 := write("s1.jsonl", `{"scenario":"x","series":"cell","cell":1,"v":2}`+"\n")
	gap := write("gap.jsonl", `{"scenario":"x","series":"cell","cell":0,"v":1}`+"\n"+
		`{"scenario":"x","series":"cell","cell":2,"v":3}`+"\n")
	inTheWay := write("file-not-dir", "plain file\n")
	badTrace := write("bad.trace", "not a span capture\n")
	goodTrace := write("good.jsonl",
		`{"id":1,"parent":0,"name":"job","start_ns":0,"dur_ns":1000000,"attrs":[]}`+"\n")

	cases := []struct {
		name string
		run  func() int
		want int
	}{
		{"no subcommand", func() int { return dispatch(nil) }, 2},
		{"unknown subcommand", func() int { return dispatch([]string{"-fig", "10"}) }, 2},
		{"list", func() int { return dispatch([]string{"list"}) }, 0},

		{"fig ok", func() int { return runFig([]string{"5", "-scale", "quick", "-o", filepath.Join(tmp, "fig5.jsonl")}) }, 0},
		{"fig no target", func() int { return runFig(nil) }, 2},
		{"fig unknown figure", func() int { return runFig([]string{"nosuchfig"}) }, 2},
		{"fig unknown scale", func() int { return runFig([]string{"5", "-scale", "huge"}) }, 2},
		{"fig bad shard spec", func() int { return runFig([]string{"5", "-shard", "5/2"}) }, 2},
		{"fig shard needs jsonl", func() int { return runFig([]string{"5", "-shard", "0/2", "-format", "csv"}) }, 2},
		{"fig bad format", func() int { return runFig([]string{"5", "-format", "xml"}) }, 2},
		{"fig bad seed", func() int { return runFig([]string{"5", "-seed", "x"}) }, 2},
		{"fig help", func() int { return runFig([]string{"-h"}) }, 0},
		{"fig unknown scenario", func() int { return runFig([]string{"nosuchscenario"}) }, 2},
		{"fig flags without target", func() int { return runFig([]string{"-scale", "quick"}) }, 2},
		{"fig scenario unknown scale", func() int { return runFig([]string{"quickstart", "-scale", "huge"}) }, 2},
		{"fig scenario bad format", func() int { return runFig([]string{"quickstart", "-format", "xml"}) }, 2},

		{"merge ok", func() int { return runMerge([]string{"-o", filepath.Join(tmp, "merged.jsonl"), s0, s1}) }, 0},
		{"merge no inputs", func() int { return runMerge(nil) }, 2},
		{"merge missing input", func() int { return runMerge([]string{filepath.Join(tmp, "absent.jsonl")}) }, 2},
		{"merge gap", func() int { return runMerge([]string{"-o", filepath.Join(tmp, "g.jsonl"), gap}) }, 2},

		{"coord no dir", func() int { return runCoord([]string{"5", "-shards", "2"}) }, 2},
		{"coord unknown target", func() int { return runCoord([]string{"nosuch", "-shards", "2", "-dir", tmp + "/r"}) }, 2},
		{"coord bad shards", func() int { return runCoord([]string{"5", "-shards", "0", "-dir", tmp + "/r"}) }, 2},
		{"coord bad retries", func() int { return runCoord([]string{"5", "-shards", "2", "-retries", "0", "-dir", tmp + "/r"}) }, 2},
		{"coord unknown scale", func() int { return runCoord([]string{"5", "-shards", "2", "-scale", "huge", "-dir", tmp + "/r"}) }, 2},
		{"coord unknown flag", func() int { return runCoord([]string{"5", "-nosuch"}) }, 2},

		{"serve no cache", func() int { return runServe(nil) }, 2},
		{"serve bad jobs", func() int { return runServe([]string{"-jobs", "x"}) }, 2},
		{"serve cache is a file", func() int {
			return runServe([]string{"-cache", filepath.Join(inTheWay, "sub"), "-addr", "127.0.0.1:0"})
		}, 1},

		{"submit no target", func() int { return runSubmit(nil) }, 2},
		{"submit unknown target", func() int { return runSubmit([]string{"nosuchtarget"}) }, 2},
		{"submit unknown scale", func() int { return runSubmit([]string{"5", "-scale", "huge"}) }, 2},
		{"submit no server", func() int { return runSubmit([]string{"5", "-addr", "http://127.0.0.1:1"}) }, 1},
		{"submit negative from", func() int { return runSubmit([]string{"5", "-from", "-1"}) }, 2},

		{"watch no target", func() int { return runWatch(nil) }, 2},
		{"watch unknown target", func() int { return runWatch([]string{"nosuchtarget"}) }, 2},
		{"watch no server", func() int { return runWatch([]string{"5", "-addr", "http://127.0.0.1:1"}) }, 1},

		{"report no file", func() int { return runReport(nil) }, 2},
		{"report two files", func() int { return runReport([]string{s0, s1}) }, 2},
		{"report missing file", func() int { return runReport([]string{filepath.Join(tmp, "absent.json")}) }, 2},
		{"report unparseable capture", func() int { return runReport([]string{badTrace}) }, 1},
		{"report ok", func() int { return runReport([]string{goodTrace}) }, 0},

		{"fig spans ok", func() int {
			return runFig([]string{"5", "-o", filepath.Join(tmp, "fig5t.jsonl"),
				"-spans", filepath.Join(tmp, "fig5t.spans.json")})
		}, 0},
		{"fig spans unwritable", func() int {
			return runFig([]string{"5", "-o", filepath.Join(tmp, "fig5u.jsonl"),
				"-spans", filepath.Join(inTheWay, "sub", "t.json")})
		}, 1},

		{"stats stray arg", func() int { return runStats([]string{"extra"}) }, 2},
		{"stats watch and metrics", func() int { return runStats([]string{"-metrics", "-watch", "1s"}) }, 2},
		{"stats samples without watch", func() int { return runStats([]string{"-samples", "2"}) }, 2},
		{"stats metrics and path", func() int { return runStats([]string{"-metrics", "-path", "/v1/stats"}) }, 2},
		{"stats bad path", func() int { return runStats([]string{"-path", "no-slash"}) }, 2},
		{"stats no server", func() int { return runStats([]string{"-addr", "http://127.0.0.1:1"}) }, 1},
		{"stats help", func() int { return runStats([]string{"-h"}) }, 0},

		{"coord bad log level", func() int {
			return runCoord([]string{"5", "-shards", "2", "-dir", tmp + "/r2", "-log-level", "loud"})
		}, 2},
		{"serve bad log format", func() int {
			return runServe([]string{"-cache", tmp + "/c", "-log-format", "yaml"})
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); got != tc.want {
				t.Fatalf("exit code %d, want %d", got, tc.want)
			}
		})
	}
}
