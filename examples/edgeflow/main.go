// Edgeflow: the full distributed deployment in one program — an edge
// device serving HTTP, an ad network behind it, and a mobile client
// talking to the edge over the wire. Mirrors Fig. 5 of the paper.
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/adnet"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/randx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "edgeflow:", err)
		os.Exit(1)
	}
}

func run() error {
	// --- Untrusted environment: the ad network.
	network, err := adnet.NewNetwork(nil)
	if err != nil {
		return fmt.Errorf("building network: %w", err)
	}
	shops := []struct {
		id  string
		at  geo.Point
		rad float64
	}{
		{"bakery", geo.Point{X: 800, Y: 300}, 20_000},
		{"gym", geo.Point{X: -2_000, Y: 1_500}, 25_000},
		{"airport-lounge", geo.Point{X: 55_000, Y: 0}, 8_000},
	}
	for _, s := range shops {
		if err := network.Register(adnet.Campaign{
			ID: s.id, Location: s.at, Radius: s.rad,
			Ad: adnet.Ad{ID: "ad-" + s.id, Title: s.id, Location: s.at},
		}); err != nil {
			return fmt.Errorf("registering %s: %w", s.id, err)
		}
	}

	// --- Trusted environment: the edge device, running the paper's
	// defense at its default parameters.
	cfg, err := deploy.Engine(deploy.Params(), 21)
	if err != nil {
		return err
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		return fmt.Errorf("building engine: %w", err)
	}
	server, err := edge.NewServer(engine, network, nil, nil)
	if err != nil {
		return fmt.Errorf("building server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- server.Serve(ctx, ln) }()
	fmt.Printf("edge device listening on http://%s\n", ln.Addr())

	// --- Mobile device: the client.
	cl, err := client.New("http://"+ln.Addr().String(), nil)
	if err != nil {
		return fmt.Errorf("building client: %w", err)
	}
	if err := cl.Health(ctx); err != nil {
		return fmt.Errorf("edge health: %w", err)
	}

	home := geo.Point{X: 0, Y: 0}
	rnd := randx.New(5, 5)
	now := time.Date(2021, 3, 1, 7, 0, 0, 0, time.UTC)
	for i := 0; i < 150; i++ {
		now = now.Add(2 * time.Hour)
		if err := cl.Report(ctx, "bob", home.Add(rnd.GaussianPolar(12)), now); err != nil {
			return fmt.Errorf("reporting: %w", err)
		}
	}
	if err := cl.Rebuild(ctx, "bob", now); err != nil {
		return fmt.Errorf("rebuilding: %w", err)
	}
	prof, err := cl.Profile(ctx, "bob")
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	fmt.Printf("edge learned %d top location(s) for bob\n\n", len(prof.Tops))

	resp, err := cl.RequestAds(ctx, "bob", home, 10)
	if err != nil {
		return fmt.Errorf("requesting ads: %w", err)
	}
	fmt.Printf("ad request from home:\n")
	fmt.Printf("  location exposed to the ad network: (%.0f, %.0f) — %.2f km from home (from permanent table: %v)\n",
		resp.Reported.X, resp.Reported.Y, resp.Reported.Dist(home)/1000, resp.FromTable)
	fmt.Printf("  provider returned %d ads; edge delivered %d after AOI filtering:\n", resp.Fetched, len(resp.Ads))
	for _, ad := range resp.Ads {
		fmt.Printf("    - %s (%.1f km away)\n", ad.Title, ad.Location.Dist(home)/1000)
	}

	// What the honest-but-curious provider logged.
	fmt.Printf("\nbid log at the provider: %d records, all obfuscated\n", network.LogSize())

	cancel()
	if err := <-serveDone; err != nil {
		return fmt.Errorf("edge shutdown: %w", err)
	}
	fmt.Println("edge shut down cleanly")
	return nil
}
