package deploy

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/adnet"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/trace"
)

// edgedLayoutDigest is layoutDigest of the 500 campaigns edged registers
// by default at seed 1, computed from edged's own campaign loop before
// that loop moved here. A changed draw order, stream, radius formula or
// ID format changes it.
const edgedLayoutDigest = 0xdf171762675c5510

// layoutDigest folds every campaign the network holds into an FNV-1a
// digest of its IDs, title and float bits, in ID order. The network has
// no listing API, so the campaigns are collected with Match on a grid
// whose step is the platform's minimum targeting radius: every campaign
// lies within step/√2 of a grid point and so matches there.
func layoutDigest(t *testing.T, network *adnet.Network) (uint64, int) {
	t.Helper()
	region := trace.DefaultConfig().Region
	step := adnet.PlatformLimits()[0].MinRadius
	found := map[string]adnet.Campaign{}
	for x := region.MinX; x < region.MaxX+step; x += step {
		for y := region.MinY; y < region.MaxY+step; y += step {
			for _, c := range network.Match(geo.Point{X: x, Y: y}) {
				found[c.ID] = c
			}
		}
	}
	ids := make([]string, 0, len(found))
	for id := range found {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	var buf [8]byte
	putF := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, id := range ids {
		c := found[id]
		for _, s := range []string{c.ID, c.Ad.ID, c.Ad.Title} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
		putF(c.Location.X)
		putF(c.Location.Y)
		putF(c.Radius)
		putF(c.Ad.Location.X)
		putF(c.Ad.Location.Y)
	}
	return h.Sum64(), len(ids)
}

// TestProviderLayoutPinned pins the default campaign layout to edged's:
// the benchmark copies it and loadgen's and lbasim's edges serve it.
func TestProviderLayoutPinned(t *testing.T) {
	provider, bidLog, _, err := NewProvider(500, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	network, ok := provider.(*adnet.Network)
	if !ok {
		t.Fatalf("direct-mode provider is %T, want *adnet.Network", provider)
	}
	if bidLog != &network.RequestLog {
		t.Error("direct mode returned a bid log other than the network's")
	}
	digest, n := layoutDigest(t, network)
	if n != 500 || network.Campaigns() != 500 {
		t.Fatalf("found %d of %d registered campaigns, want 500", n, network.Campaigns())
	}
	if digest != edgedLayoutDigest {
		t.Fatalf("layout digest = %#016x, want %#016x", digest, uint64(edgedLayoutDigest))
	}
}

// TestEngine pins the default mechanisms: the n-fold Gaussian at the
// paper's parameters and planar Laplace at ε = ln 4 / 200 m.
func TestEngine(t *testing.T) {
	want := geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10}
	if Params() != want {
		t.Fatalf("Params() = %+v, want %+v", Params(), want)
	}
	cfg, err := Engine(Params(), 7)
	if err != nil {
		t.Fatal(err)
	}
	mech, ok := cfg.Mechanism.(*geoind.NFoldGaussian)
	if !ok || mech.Params() != want {
		t.Fatalf("mechanism = %#v, want the n-fold Gaussian at %+v", cfg.Mechanism, want)
	}
	nomadic, ok := cfg.NomadicMechanism.(*geoind.PlanarLaplace)
	if !ok || nomadic.Epsilon() != math.Log(4)/200 {
		t.Fatalf("nomadic mechanism = %#v, want planar Laplace at ln 4 / 200 m", cfg.NomadicMechanism)
	}
	if cfg.Seed != 7 || cfg.Shards != 0 || cfg.SpillDir != "" || cfg.MaxResidentUsers != 0 {
		t.Errorf("config = %+v, want only the seed set beyond the mechanisms", cfg)
	}
	bad := Params()
	bad.Delta = 1
	if _, err := Engine(bad, 7); err == nil {
		t.Error("Engine accepted delta = 1")
	}
}

// TestNewClusterLayout: edge centres sit on cover's horizontal midline,
// each disk as wide as cover's diagonal.
func TestNewClusterLayout(t *testing.T) {
	cfg, err := Engine(Params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cover := geo.BBox{MinX: 0, MinY: 0, MaxX: 3000, MaxY: 1000}
	merge := geo.BBox{MinX: 500, MinY: 0, MaxX: 2500, MaxY: 1000}
	c, err := NewCluster(cfg, cover, merge, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 3 {
		t.Fatalf("edges = %d, want 3", len(c.Nodes()))
	}
	diag := math.Hypot(3000, 1000)
	for i, n := range c.Nodes() {
		want := geo.Circle{Center: geo.Point{X: 500 + 1000*float64(i), Y: 500}, Radius: diag}
		if n.Coverage != want {
			t.Errorf("edge %d coverage = %+v, want %+v", i, n.Coverage, want)
		}
	}
	if _, err := NewCluster(cfg, cover, geo.BBox{}, 3, 1); err == nil {
		t.Error("NewCluster accepted a degenerate merge region")
	}
}
