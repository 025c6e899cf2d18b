package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/experiments/exp"
	"repro/internal/scenario/sink"
)

// streamDigests pins the SHA-256 of each experiment's unsharded JSONL
// record stream at exp.Quick(), job seed 1, one worker. The serve cache
// hands out stored streams under a key that does not include the
// simulator's code, so these bytes are a compatibility surface: a
// performance change to sim/phy/mac must leave every entry untouched.
// Every registered experiment has an entry; a new one without a digest
// fails the test.
var streamDigests = []struct{ name, sha256 string }{
	{"fig3", "cd8936378f7db3870a88fb218cac1661174067eeed05bb5cd0ad06d0cc0cee9f"},
	{"fig4", "8239b8824c4a7d08f5b00ebd66302ce24654f4b0cf3d84f7a52e8dc475148e3d"},
	{"fig5", "c007ee1d3115045a54a210a0061607baafba34cbe7a932d56725f11955e9d84b"},
	{"fig6", "e35ba24a326e7a3577d024aa7992095b5d1737f028f364da960df57ea6d2ec2f"},
	{"netvalid", "23cb68cbfd897d24d5466e45b2554b664df2e8917167257c490deee6380cefbc"},
	{"fig9", "1e6beccb6306a3fc9d299d3345b768679d80fcf0d655abffc845e2562d23b605"},
	{"fig10", "c4a91e0aecbcc1a4c461f85215e8354640cb899700f5ba97f8e8198ad2d63189"},
	{"fig11", "dd061bd1d97427b2cf2ae8fb1dd891bf7173b9eb25b067d57673824d99469415"},
	{"fig13", "0901339e0af02c0b29a9112df75be4c27ca99e3d53905fdf9294f4e1512aa7aa"},
	{"fig14", "18bf6ec4de90febbef08f955ffbcc33baf66f70f19f2f1888109e5db8d64d148"},
	{"exhaustive", "7c7f86738ddf8f94d923e956fbd21870c337a39fe455531558d2a83eac10c04b"},
	{"broadcast", "a3e554dc3a3d950da0c3d89316e52ee785ceb94e268a6f776e0d710267fbc9f3"},
}

func TestStreamDigestsPinned(t *testing.T) {
	pinned := map[string]bool{}
	for _, want := range streamDigests {
		pinned[want.name] = true
		t.Run(want.name, func(t *testing.T) {
			e, ok := exp.Find(want.name)
			if !ok {
				t.Fatalf("experiment %q is not registered", want.name)
			}
			h := sha256.New()
			withWorkers(1, func() {
				s := sink.NewJSONL(h)
				if _, err := exp.Run(e, 1, exp.Quick(), exp.Options{Sink: s}); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			})
			if got := hex.EncodeToString(h.Sum(nil)); got != want.sha256 {
				t.Fatalf("%s record stream changed:\n got %s\nwant %s\n"+
					"a changed digest requires bumping keyVersion in internal/serve/cache.go in the same PR "+
					"(cached entries would otherwise be served for bytes the code no longer produces)",
					want.name, got, want.sha256)
			}
		})
	}
	for _, name := range exp.Names() {
		if !pinned[name] {
			t.Errorf("experiment %q has no pinned stream digest", name)
		}
	}
}
