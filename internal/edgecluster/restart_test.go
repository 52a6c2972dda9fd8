package edgecluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// lazyStore opens the WAL in dir on its first use, the way a restarted
// edge process opens its log only once it runs. RestartNode reads it
// only after the old engine's calls have drained, so the old engine
// never writes the same files after they are opened.
type lazyStore struct {
	dir  string
	once sync.Once
	st   *wal.Store
	err  error
}

func (l *lazyStore) store() (*wal.Store, error) {
	l.once.Do(func() { l.st, l.err = wal.Open(l.dir, wal.Options{Policy: wal.SyncNever}) })
	return l.st, l.err
}

func (l *lazyStore) LatestCheckpoint() (uint64, io.ReadCloser, bool, error) {
	st, err := l.store()
	if err != nil {
		return 0, nil, false, err
	}
	return st.LatestCheckpoint()
}

func (l *lazyStore) Replay(from uint64, fn func(lsn uint64, rec []byte) error) error {
	st, err := l.store()
	if err != nil {
		return err
	}
	return st.Replay(from, fn)
}

func (l *lazyStore) Append(rec []byte) (uint64, error) {
	st, err := l.store()
	if err != nil {
		return 0, err
	}
	return st.Append(rec)
}

func (l *lazyStore) NextLSN() uint64 {
	st, err := l.store()
	if err != nil {
		return 0
	}
	return st.NextLSN()
}

// postBinary sends m to url in the binary codec, retrying while the
// cluster answers 503 (the routed edge is down), and decodes a 200
// response into out. A 503 comes from routing, before any engine call,
// so a retried report is applied exactly once.
func postBinary(url string, m, out wire.Message) error {
	body := wire.Encode(m)
	for {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return err
		case resp.StatusCode == http.StatusServiceUnavailable:
			time.Sleep(200 * time.Microsecond)
		case resp.StatusCode == http.StatusNoContent && out == nil:
			return nil
		case resp.StatusCode == http.StatusOK && out != nil:
			return wire.Decode(data, out)
		default:
			return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, data)
		}
	}
}

// restartTraffic is what runRestartTraffic leaves to compare: the
// cluster after every user's closing merge, and the check-ins each edge
// acknowledged per user.
type restartTraffic struct {
	c     *Cluster
	acked map[string]int
}

// runRestartTraffic serves a three-edge cluster behind edge.Server and
// drives it from one goroutine per user. Users homed on edge-00 send
// single reports and two-item batches; users homed on edge-01 and
// edge-02 send reports and ad requests, whose AOI filter runs on
// edge-00's engine. No edge covers another's home, so a report routed
// while edge-00 is down is refused and retried, never failed over. Ad
// requests go only to edges that stay up: one stores its check-in and
// then selects its output, two calls the cluster routes apart, so a
// request refused between them could not be retried exactly once. With
// restart, edge-00 logs to a WAL and RestartNode rebuilds it from that
// log while the traffic runs. Every user's check-ins must be pending on
// its home edge afterwards; then every user is merged once more.
func runRestartTraffic(t *testing.T, restart bool) restartTraffic {
	t.Helper()
	cfg := testClusterConfig(t, threeEdges())
	cfg.MergeRegion = geo.BBox{MinX: -10_000, MinY: -10_000, MaxX: 30_000, MaxY: 30_000}
	cfg.MergeCell = 500
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if restart {
		st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if _, err := c.Nodes()[0].Engine.Recover(st); err != nil {
			t.Fatal(err)
		}
	}

	const users, ops = 12, 30
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	home := func(u int) geo.Point { return c.Nodes()[u%3].Coverage.Center }
	id := func(u int) string { return fmt.Sprintf("u%02d", u) }
	for u := 0; u < users; u++ {
		rnd := randx.New(5, uint64(u))
		for k := 0; k < 25; k++ {
			if _, err := c.Report(id(u), home(u).Add(rnd.GaussianPolar(10)), base.Add(time.Duration(k)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.MergeProfiles(id(u), base.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}

	network, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer(c, network, func() time.Time { return base.Add(2 * time.Hour) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Users homed on edge-00 send 15 single reports and 15 batches of two.
	const edge0CheckIns = users / 3 * (ops / 2 * 3)
	var edge0Acked atomic.Int64
	acked := make([]int, users)
	errs := make(chan error, users) // at most one per sender
	var traffic sync.WaitGroup
	for u := 0; u < users; u++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			rnd := randx.New(6, uint64(u))
			at := base.Add(3 * time.Hour)
			next := func() wire.ReportRequest {
				at = at.Add(time.Minute)
				return wire.ReportRequest{UserID: id(u), Pos: home(u).Add(rnd.GaussianPolar(10)), Time: at}
			}
			for k := 0; k < ops; k++ {
				var err error
				switch {
				case u%3 != 0 && k%2 == 1:
					var resp wire.AdsResponse
					if err = postBinary(ts.URL+"/v1/ads", &wire.AdsRequest{UserID: id(u), Pos: home(u).Add(rnd.GaussianPolar(10)), Limit: 5}, &resp); err == nil {
						acked[u]++
					}
				case u%3 == 0 && k%2 == 1:
					// A batch routes item by item: resend the items refused
					// while edge-00 was down, in order.
					for batch := []wire.ReportRequest{next(), next()}; len(batch) > 0; {
						var resp wire.ReportBatchResponse
						if err = postBinary(ts.URL+"/v1/report/batch", &wire.ReportBatchRequest{Reports: batch}, &resp); err != nil {
							break
						}
						var refused []wire.ReportRequest
						for _, ie := range resp.Errors {
							refused = append(refused, batch[ie.Index])
						}
						acked[u] += len(batch) - len(refused)
						edge0Acked.Add(int64(len(batch) - len(refused)))
						batch = refused
					}
				default:
					report := next()
					if err = postBinary(ts.URL+"/v1/report", &report, nil); err == nil {
						acked[u]++
						if u%3 == 0 {
							edge0Acked.Add(1)
						}
					}
				}
				if err != nil {
					errs <- fmt.Errorf("%s op %d: %w", id(u), k, err)
					return
				}
			}
		}()
	}
	trafficDone := make(chan struct{})
	go func() {
		traffic.Wait()
		close(trafficDone)
	}()
	if restart {
		// Restart once a third of edge-00's check-ins are in. The traffic
		// ends sooner only when a sender failed, which is reported below.
	wait:
		for edge0Acked.Load() < edge0CheckIns/3 {
			select {
			case <-trafficDone:
				break wait
			case <-time.After(100 * time.Microsecond):
			}
		}
		if err := c.RestartNode(0, &lazyStore{dir: dir}); err != nil {
			t.Errorf("RestartNode: %v", err)
		}
	}
	<-trafficDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	out := restartTraffic{c: c, acked: make(map[string]int)}
	for u := 0; u < users; u++ {
		pending, err := c.Nodes()[u%3].Engine.PendingProfile(id(u))
		if err != nil {
			t.Fatal(err)
		}
		if got := pending.Total(); got != acked[u] {
			t.Errorf("restart=%v: %s has %d check-ins pending on %s, %d acknowledged", restart, id(u), got, c.Nodes()[u%3].ID, acked[u])
		}
		out.acked[id(u)] = acked[u]
		if _, err := c.MergeProfiles(id(u), base.Add(4*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRestartNodeUnderTraffic restarts edge-00 from its WAL behind
// edge.Server while reports, batches and ad requests run, and compares
// the cluster with one that served the same traffic without a restart:
// every acknowledged check-in is on its home edge, and the cluster
// stats, every table fingerprint and every edge's snapshot bytes agree.
func TestRestartNodeUnderTraffic(t *testing.T) {
	steady := runRestartTraffic(t, false)
	restarted := runRestartTraffic(t, true)

	if got, want := restarted.c.Stats(), steady.c.Stats(); got != want {
		t.Errorf("stats after the restart %+v, without it %+v", got, want)
	}
	for user, n := range steady.acked {
		if restarted.acked[user] != n {
			t.Errorf("%s: %d check-ins acknowledged with the restart, %d without", user, restarted.acked[user], n)
		}
		got, err := restarted.c.TableFingerprint(user)
		if err != nil {
			t.Fatal(err)
		}
		want, err := steady.c.TableFingerprint(user)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: journal fingerprint %016x with the restart, %016x without", user, got, want)
		}
		for i, n := range restarted.c.Nodes() {
			if got, want := fingerprint(t, n, user), fingerprint(t, steady.c.Nodes()[i], user); got != want {
				t.Errorf("%s at %s: table fingerprint %016x with the restart, %016x without", user, n.ID, got, want)
			}
		}
	}
	for i, n := range restarted.c.Nodes() {
		var got, want bytes.Buffer
		if err := n.Engine.Snapshot(&got); err != nil {
			t.Fatal(err)
		}
		if err := steady.c.Nodes()[i].Engine.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: snapshot differs after the restart (%d bytes, %d without)", n.ID, got.Len(), want.Len())
		}
	}
}

// errBrokenStore is what every call on a brokenStore returns.
var errBrokenStore = errors.New("store unreadable")

// brokenStore is a durable store that cannot be read or written.
type brokenStore struct{}

func (brokenStore) Append([]byte) (uint64, error) { return 0, errBrokenStore }
func (brokenStore) NextLSN() uint64               { return 0 }
func (brokenStore) LatestCheckpoint() (uint64, io.ReadCloser, bool, error) {
	return 0, nil, false, errBrokenStore
}
func (brokenStore) Replay(uint64, func(uint64, []byte) error) error { return errBrokenStore }

// TestRestartNodeFailedRecoveryKeepsNode: RestartNode marks the node
// down before it recovers, so a recovery that fails must put the node's
// health back as it was and keep its engine, which goes on serving.
func TestRestartNodeFailedRecoveryKeepsNode(t *testing.T) {
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes()[0]
	engine := n.Engine
	for _, down := range []bool{false, true} {
		if down {
			if err := c.MarkDown(0); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RestartNode(0, brokenStore{}); !errors.Is(err, errBrokenStore) {
			t.Fatalf("down=%v: RestartNode over a broken store = %v, want %v", down, err, errBrokenStore)
		}
		if n.Engine != engine || n.Down() != down {
			t.Fatalf("down=%v: after the failed restart the engine changed (%v) or Down() = %v", down, n.Engine != engine, n.Down())
		}
	}
	if err := c.MarkUp(0); err != nil {
		t.Fatal(err)
	}
	if id, err := c.Report("u", c.Nodes()[0].Coverage.Center, time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)); err != nil || id != n.ID {
		t.Fatalf("report after the failed restart went to %q, %v; want %s", id, err, n.ID)
	}
}
