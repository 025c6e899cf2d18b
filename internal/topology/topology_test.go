package topology

import (
	"math"
	"testing"

	"repro/internal/phy"
)

func TestTwoLinkClassRelations(t *testing.T) {
	cfg := phy.DefaultConfig()
	cs := phy.DBmToMW(cfg.CSThreshDBm)
	for _, tc := range []struct {
		class      Class
		txSense    bool // transmitters sense each other
		rx1Exposed bool // rx1 hears tx2 above CS
		rx2Exposed bool // rx2 hears tx1 above CS
	}{
		// In the CS class everyone is inside everyone's sense range;
		// only the transmitter relation is definitional.
		{CS, true, true, true},
		{IA, false, true, false},
		{NF, false, true, true},
	} {
		nw := TwoLink(1, tc.class, phy.Rate11, phy.Rate11)
		m := nw.Medium
		if got := m.GainMW(0, 2) >= cs; got != tc.txSense {
			t.Errorf("%v: tx mutual sensing = %v, want %v", tc.class, got, tc.txSense)
		}
		if got := m.GainMW(2, 1) >= cs; got != tc.rx1Exposed {
			t.Errorf("%v: rx1 exposure = %v, want %v", tc.class, got, tc.rx1Exposed)
		}
		if got := m.GainMW(0, 3) >= cs; got != tc.rx2Exposed {
			t.Errorf("%v: rx2 exposure = %v, want %v", tc.class, got, tc.rx2Exposed)
		}
	}
}

func TestTwoLinkLinksDecodable(t *testing.T) {
	for _, class := range []Class{CS, IA, NF} {
		nw := TwoLink(1, class, phy.Rate1, phy.Rate1)
		if !nw.Decodable(nw.Link1, phy.Rate1) || !nw.Decodable(nw.Link2, phy.Rate1) {
			t.Errorf("%v: links not decodable at 1 Mb/s", class)
		}
	}
}

func TestChainRoutesBothDirections(t *testing.T) {
	nw := Chain(1, 5, 70, phy.Rate11)
	if nw.Node(0).NextHop(4) != 1 {
		t.Fatal("forward route wrong")
	}
	if nw.Node(4).NextHop(0) != 3 {
		t.Fatal("reverse route wrong")
	}
	if nw.Node(2).NextHop(0) != 1 || nw.Node(2).NextHop(4) != 3 {
		t.Fatal("middle routes wrong")
	}
}

func TestChainAdjacentDecodable(t *testing.T) {
	nw := Chain(1, 5, 70, phy.Rate11)
	for i := 0; i < 4; i++ {
		if !nw.Decodable(Link{Src: i, Dst: i + 1}, phy.Rate11) {
			t.Fatalf("hop %d-%d not decodable", i, i+1)
		}
	}
}

// sameLayout reports whether two networks have identical pairwise
// gains, which are a pure function of node placement and shadowing.
func sameLayout(a, b *Network) bool {
	for i := range a.Nodes {
		for j := range a.Nodes {
			if i != j && a.Medium.GainMW(i, j) != b.Medium.GainMW(i, j) {
				return false
			}
		}
	}
	return true
}

func TestMesh18Deterministic(t *testing.T) {
	a, b := Mesh18(5), Mesh18(5)
	if !sameLayout(a, b) {
		t.Fatal("Mesh18 layout not deterministic")
	}
	for i := range a.Nodes {
		for j := range a.Nodes {
			if a.Medium.ChannelLossProb(i, j, 1500) != b.Medium.ChannelLossProb(i, j, 1500) {
				t.Fatal("BER assignment not deterministic")
			}
		}
	}
}

func TestMesh18SeededSeparatesLayoutFromSim(t *testing.T) {
	if !sameLayout(Mesh18Seeded(5, 100), Mesh18Seeded(5, 200)) {
		t.Fatal("layout changed with sim seed")
	}
}

func TestMesh18Has18Nodes(t *testing.T) {
	nw := Mesh18(1)
	if len(nw.Nodes) != 18 {
		t.Fatalf("%d nodes", len(nw.Nodes))
	}
}

func TestMesh18LinkQualityDiversity(t *testing.T) {
	nw := Mesh18(1)
	var clean, lossy int
	for i := 0; i < 18; i++ {
		for j := 0; j < 18; j++ {
			if i == j {
				continue
			}
			// Frame loss from channel errors is monotone in the BER.
			switch p := nw.Medium.ChannelLossProb(i, j, 1500); {
			case p < -math.Expm1(8*1500*math.Log1p(-1e-6)):
				clean++
			case p > -math.Expm1(8*1500*math.Log1p(-1e-5)):
				lossy++
			}
		}
	}
	if clean == 0 || lossy == 0 {
		t.Fatalf("no diversity: clean=%d lossy=%d", clean, lossy)
	}
}

func TestGatewayScenarioHiddenness(t *testing.T) {
	nw := GatewayScenario(1, phy.Rate1)
	cs := phy.DBmToMW(phy.DefaultConfig().CSThreshDBm)
	if nw.Medium.GainMW(2, 0) >= cs {
		t.Fatal("node 2 must be hidden from the gateway")
	}
	if nw.Medium.GainMW(1, 0) < cs || nw.Medium.GainMW(2, 1) < cs {
		t.Fatal("adjacent nodes must sense each other")
	}
	// The capture asymmetry: gateway stronger at the relay than node 2.
	if nw.Medium.GainMW(0, 1) <= nw.Medium.GainMW(2, 1) {
		t.Fatal("gateway must out-power node 2 at the relay")
	}
	if nw.Node(2).NextHop(0) != 1 {
		t.Fatal("2-hop route not installed")
	}
}

func TestSNRdBAndLinks(t *testing.T) {
	nw := Chain(1, 3, 70, phy.Rate11)
	snr := nw.SNRdB(Link{Src: 0, Dst: 1})
	if snr < phy.Rate11.MinSINRdB() {
		t.Fatalf("adjacent SNR %v below decode threshold", snr)
	}
	links := nw.Links(phy.Rate11)
	if len(links) < 4 {
		t.Fatalf("chain links = %v", links)
	}
}

func TestTwoLinkUnknownClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown class")
		}
	}()
	TwoLink(1, Class(99), phy.Rate1, phy.Rate1)
}

func TestClassString(t *testing.T) {
	if CS.String() != "CS" || IA.String() != "IA" || NF.String() != "NF" {
		t.Fatal("class names wrong")
	}
}
