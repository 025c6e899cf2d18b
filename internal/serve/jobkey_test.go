package serve

import (
	"os"
	"testing"

	"repro/internal/dist"
	"repro/internal/experiments/exp"
)

// jobKeyGoldens pins the content address of every registered name at
// seed 1, quick and paper scale. Cache entries, watch ids and imported
// run directories are found by these keys, so a refactor of name
// resolution must leave every one of them untouched.
var jobKeyGoldens = []struct{ name, quick, paper string }{
	{"fig3", "48a12e715e00a8c7e10e2732300bbb3067a60594ce624d96917cab1abea79e84", "ef83cf9d0342a0ddbd21f84463887d837de3cbe403fb2bc86768c54c90eb3377"},
	{"fig4", "8785bb88cf2ed599e6eeb6f40cd96d75d0713aa2916504bf6b9429bd00553904", "47ed9ca816141c4f47172c404abfa7c5fe81de5218c19deaecdfb84ee0cf36ac"},
	{"fig5", "f16fc49b7dd23b122933f5130ecb4463c02b2a7bef123449d20af276e12427c7", "b0f409b1b0fe99df61306cb15dd0795008be968302cef289216a472875f0c804"},
	{"fig6", "9864a9d71e8c63a6095aae1fa630e1d96988e16bf7c5355f46392be698c9fb92", "72f2368036f80161303768b13bb3544adf5294369dc5351b9370ae6fdc6b68d1"},
	{"netvalid", "3817b92c5a8cb8d110153790d9d7f1b2f2c8981512699a643e9af80b87432686", "e4103b79ba0067fe69fff84dae69d8d378290f8b47f074ae99da6408d3a44701"},
	{"fig9", "39d24ff3abb2bab692b165e09fc6bb2de20dfd2c39a0e36d25bd930251366ad9", "cc4c3612415e0326e02a587077b31cc89e19e418589f208ebc282e3fcd937591"},
	{"fig10", "24649381aa8ab8e4bf74f1b6d619303a82e742724822583ac1dcc0ef7dc2d240", "4673d47f553e4e8d3db562926b45bb0f8b2e160279ebe3d052fc95df85322670"},
	{"fig11", "4c20597daa67bd7d70d0187ed72a487e472f17979b620aee36206761665f4f05", "4107dd412d6527b62c17772939c68cd1e718e72c4b12e16ba41147026b3833b1"},
	{"fig13", "1cc3fa4a614d898449456f876d26e77c14a0a5d798ce673751d2c3f52ab28866", "dbc1ad3f960aee007a27e7056dc9d19733f278fcdb4aa66e0cb43b9eb81139eb"},
	{"fig14", "0824a79a32f575ed3be7c7d71075cee55649cb2102aaeff944fd0d1980a87705", "6972a3c5c81efe04d7a807d606688ceb9b5906a26d15a5c4f829804d058be0c5"},
	{"exhaustive", "6682e1100ed01af16f7cb99524acd87221afb9f05b44c8578aeedbdff5253e15", "e9e2243b81e33c3164d21f7661daf7e7c7965d83ac07ca6aa98d8e92fda6769d"},
	{"broadcast", "c85ed48369dfc864bf9f82fb25428833594f26a867a92251cb1449474919dbcd", "7fdc70ef279681bd2a34098fea6d05cbc78c71783bec176bdfb76c84cc5a2593"},
	{"fig7", "3817b92c5a8cb8d110153790d9d7f1b2f2c8981512699a643e9af80b87432686", "e4103b79ba0067fe69fff84dae69d8d378290f8b47f074ae99da6408d3a44701"},
	{"fig8", "3817b92c5a8cb8d110153790d9d7f1b2f2c8981512699a643e9af80b87432686", "e4103b79ba0067fe69fff84dae69d8d378290f8b47f074ae99da6408d3a44701"},
	{"fig12", "3817b92c5a8cb8d110153790d9d7f1b2f2c8981512699a643e9af80b87432686", "e4103b79ba0067fe69fff84dae69d8d378290f8b47f074ae99da6408d3a44701"},
	{"capacity", "649d5bd00c1ddc49d43668b3d13df201eda3b62527b03d131367cec2b7a4f367", "597347efb7ab339cc8e26107039bdb3af2acfcab9ee3eca4a4cfdae57f9ec8b7"},
	{"fairness", "7c0d5284ab6d480f54ae03fe137c3c1e2e2c09f32bcfe4bd70fad092c26539a7", "31a730cf8f4ecb419be6ba13f8e996549de11cdbf20c4161f93199980c1408b9"},
	{"quickstart", "ee6fb340fe746987f4a34336f0ea9d62ffc11da6d6b4e2ae782e93f56759e5af", "3ea8a3c1661551469e75f9d766854dc0d02b7144c95d5d8855646980b261c2f2"},
	{"starvation", "ff874489f3dfa90398dad6559f3829a88786601ac49b1506d85482debaa8efcc", "7e9bb0f1efb14272fd670cd63dc45f3e4633c4e2350cba83efe34119f8820c0f"},
}

// TestJobKeyGoldens checks every pinned key, the key of the example
// spec file submitted inline, and that no registered name lacks a pin.
func TestJobKeyGoldens(t *testing.T) {
	pinned := map[string]bool{}
	for _, g := range jobKeyGoldens {
		pinned[g.name] = true
		for scale, want := range map[string]string{"quick": g.quick, "paper": g.paper} {
			if got := mustKey(t, dist.Job{Experiment: g.name, Seed: 1, Scale: scale}); got != want {
				t.Errorf("JobKey(%s, %s) = %s, want %s", g.name, scale, got, want)
			}
		}
	}
	spec, err := os.ReadFile("../../examples/broadcast.json")
	if err != nil {
		t.Fatal(err)
	}
	for scale, want := range map[string]string{
		"quick": "9150206b8861e52d20eb97f01852024a67041d36f0a059a9989a81cdbfb36602",
		"paper": "3437c84afe1396921f955e00d1b40dc3fd831966d2bb9db07d361fdd0015a5af",
	} {
		if got := mustKey(t, dist.Job{Experiment: "broadcast-demo", Spec: spec, Seed: 1, Scale: scale}); got != want {
			t.Errorf("JobKey(examples/broadcast.json, %s) = %s, want %s", scale, got, want)
		}
	}

	toys := map[string]bool{}
	for _, e := range []exp.Experiment{toyServe{}, toyPanic{}, toyWide{}, toyReducePanic{}} {
		toys[e.Name()] = true
	}
	for _, c := range dist.Catalogue() {
		if !pinned[c.Name] && !toys[c.Name] {
			t.Errorf("catalogue name %q has no pinned JobKey", c.Name)
		}
	}
}

// TestCatalogueResolvesOnce checks that every catalogue name resolves,
// that an alias gets its target's key, and that no name is listed
// twice: a duplicate is how a name comes to shadow another.
func TestCatalogueResolvesOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range dist.Catalogue() {
		if seen[c.Name] {
			t.Errorf("%q is listed twice", c.Name)
		}
		seen[c.Name] = true
		j := dist.Job{Experiment: c.Name, Seed: 1, Scale: "quick"}
		if _, _, err := j.Resolve(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if c.Kind == "alias" {
			e, _, _ := j.Target()
			if want := mustKey(t, dist.Job{Experiment: e.Name(), Seed: 1, Scale: "quick"}); mustKey(t, j) != want {
				t.Errorf("alias %s and its target %s have different keys", c.Name, e.Name())
			}
		}
	}
}

func mustKey(t *testing.T, j dist.Job) string {
	t.Helper()
	k, err := JobKey(j)
	if err != nil {
		t.Fatalf("JobKey(%+v): %v", j, err)
	}
	return k
}
