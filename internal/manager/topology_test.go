package manager

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGeneratorNamesGolden pins every uniform generator's names through
// TopologyHash (which digests each switch and server name in tree order)
// plus the first and last server, and the spec generators' encoded
// bytes, which are the assign-frame payload. The constants predate the
// four generators sharing one implementation, so a match proves that
// sharing moved no name, MAC, IP or seed.
func TestGeneratorNamesGolden(t *testing.T) {
	tree, err := Tree([]int{4, 8, 32}, QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	rackSpec, err := RackSpec(8, DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	treeSpec, err := TreeSpec([]int{4, 8, 8}, QuadCore, DeployConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		root        NodeSpec
		spec        *ClusterSpec // encoded bytes pinned when set
		hash        uint64
		first, last string
		encoded     string
	}{
		{"Rack", Rack("tor0", 8, QuadCore), nil, 0x5bbf25076b7a3ec5, "tor0-s0", "tor0-s7", ""},
		{"Tree", tree, nil, 0xc36b4309f639cd74, "root.0.0.0", "root.3.7.31", ""},
		{"RackSpec", rackSpec.Root, &rackSpec, 0xa0c1b917a1895032, "server0", "server7",
			"34e35d0e2f52850b75395ad318ba8076b9562a735d9ddffc3e6f9640bce60444"},
		{"TreeSpec", treeSpec.Root, &treeSpec, 0x2e0888d1a13d92ff, "server0", "server255",
			"da2575f7b474c0339eecc32ee911bc3ed78bcc2014abdcf7b2ef0620c5486565"},
	} {
		if got := TopologyHash(tc.root, DeployConfig{}); got != tc.hash {
			t.Errorf("%s: TopologyHash %#x, want %#x", tc.name, got, tc.hash)
		}
		var servers []string
		tc.root.each(func(n *NodeSpec) {
			if n.Server != "" {
				servers = append(servers, n.Server)
			}
		})
		if first, last := servers[0], servers[len(servers)-1]; first != tc.first || last != tc.last {
			t.Errorf("%s: servers %s..%s, want %s..%s", tc.name, first, last, tc.first, tc.last)
		}
		if tc.spec == nil {
			continue
		}
		data, err := tc.spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.encoded {
			t.Errorf("%s: encoded spec sha256 %x, want %s", tc.name, sum, tc.encoded)
		}
	}
}
