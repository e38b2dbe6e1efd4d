package manager

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// This file models the FPGA build flow: in the real FireSim, each distinct
// server configuration is run through Vivado synthesis/place-and-route on
// a fleet of build instances ("users can now scale to an essentially
// unlimited number of FPGA synthesis/P&R machines"), producing an Amazon
// FPGA Image (AGFI) per configuration. Here a build is a deterministic
// fingerprint of the blade configuration — enough to exercise the
// manager's artifact bookkeeping: builds are deduplicated per type, cached
// across deploys, and heterogeneous topologies trigger parallel builds.

// Image is a built FPGA image for one blade configuration.
type Image struct {
	// Blade is the configuration this image implements.
	Blade BladeType
	// AGFI is the deterministic image identifier.
	AGFI string
	// Supernode records whether the image packs four blades per FPGA.
	Supernode bool
}

// BuildFarm caches built images, deduplicating repeat builds like the
// manager's artifact store.
type BuildFarm struct {
	images map[string]Image
	// Builds counts actual (non-cached) build jobs executed.
	Builds int
}

// NewBuildFarm returns an empty image cache.
func NewBuildFarm() *BuildFarm {
	return &BuildFarm{images: make(map[string]Image)}
}

// agfiFor fingerprints a configuration.
func agfiFor(blade BladeType, supernode bool) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|supernode=%v|l1=16K|l2=256K|dram=16G|nic=200G", blade, supernode)
	return fmt.Sprintf("agfi-%016x", h.Sum64())
}

// Build returns the image for a blade configuration, building it if it is
// not cached.
func (f *BuildFarm) Build(blade BladeType, supernode bool) (Image, error) {
	if _, err := blade.Cores(); err != nil {
		return Image{}, err
	}
	key := string(blade) + fmt.Sprintf("|%v", supernode)
	if img, ok := f.images[key]; ok {
		return img, nil
	}
	img := Image{Blade: blade, AGFI: agfiFor(blade, supernode), Supernode: supernode}
	f.images[key] = img
	f.Builds++
	return img, nil
}

// BuildAll builds every distinct blade type in the topology (the builds
// are independent, which is what the paper parallelises across build
// instances) and returns the images sorted by blade type.
func (f *BuildFarm) BuildAll(root NodeSpec, supernode bool) ([]Image, error) {
	types := make(map[BladeType]bool)
	root.each(func(n *NodeSpec) {
		if n.Server != "" {
			types[n.Blade] = true
		}
	})
	var out []Image
	for bt := range types {
		img, err := f.Build(bt, supernode)
		if err != nil {
			return nil, err
		}
		out = append(out, img)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Blade < out[j].Blade })
	return out, nil
}
