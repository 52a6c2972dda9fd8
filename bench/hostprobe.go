package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host probe measures how fast this machine is serving right now, so
// end-to-end times can be reported at a fixed reference speed. On a
// shared 2-vCPU VM the same inputs ran at an ads p50 of 0.09 ms in one
// minute and 0.23 ms a few minutes later, with no CPU steal reported:
// other tenants slow syscalls, wake-ups and cache-heavy code alike. No
// statistic taken inside one run removes a slowdown that lasts minutes,
// but a fixed reference workload measured next to the run slows with it.
//
// The probe is two closed-loop clients POSTing a small JSON body to a
// JSON echo handler over loopback, the shape of the serving path minus
// the program. It runs in a child process with a heap of its own while
// the benchmark's workers are stopped, and it uses only the standard
// library, so a change to the program cannot change the probe's code.
// The benchmark process is not fully idle meanwhile: background
// goroutines such as the WAL's interval syncer and the memory sampler
// keep running, so a change that adds background work would also slow
// the probe slightly.
const (
	// probeRef is the probe's p50 on the development host when quiet; a
	// run whose probes read probeRef reports its times as measured.
	probeRef = 40 * time.Microsecond
	// probeExponent is how strongly a measured time follows the probe:
	// over ten seeds of every workload, the log of each gated time
	// regressed on the log of the probe reading with slopes of 0.3–1.2
	// and a median of 0.7 (README.md). A time is scaled by
	// (probeRef / probe)^probeExponent.
	probeExponent = 0.7
	// probeLen is how long one probe drives the echo handler.
	probeLen = 200 * time.Millisecond
	// probeEnv, set in a child's environment, makes it a probe child.
	probeEnv = "BENCH_HOST_PROBE"
	// probesPerPoint is how many probes run before setup, between setup
	// and the measured phase, and after it; one more runs at each of the
	// measured phase's pauses.
	probesPerPoint = 2
)

// probeChildMode reports whether this process was started as a probe
// child.
func probeChildMode() bool { return os.Getenv(probeEnv) != "" }

type probeMsg struct {
	UserID string      `json:"user_id"`
	Pos    [2]float64  `json:"pos"`
	Limit  int         `json:"limit"`
	Ads    [][]float64 `json:"ads,omitempty"`
}

// runProbeChild drives the echo handler for probeLen and prints the p50
// round-trip time in nanoseconds.
func runProbeChild(stdout io.Writer) int {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m probeMsg
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m.Ads = make([][]float64, m.Limit)
		for i := range m.Ads {
			m.Ads[i] = []float64{m.Pos[0] + float64(i), m.Pos[1] - float64(i)}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&m) // a failed write shows as a client error
	}))
	defer srv.Close()
	body, err := json.Marshal(probeMsg{UserID: "u000001", Pos: [2]float64{1200.5, -310.25}, Limit: 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		return 1
	}
	var (
		mu       sync.Mutex
		lats     []time.Duration
		firstErr error
		wg       sync.WaitGroup
	)
	deadline := time.Now().Add(probeLen)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &http.Client{Transport: &http.Transport{}}
			defer cl.CloseIdleConnections()
			var local []time.Duration
			var err error
			for err == nil && time.Now().Before(deadline) {
				start := time.Now()
				var resp *http.Response
				if resp, err = cl.Post(srv.URL, "application/json", bytes.NewReader(body)); err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				local = append(local, time.Since(start))
			}
			mu.Lock()
			lats = append(lats, local...)
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil || len(lats) == 0 {
		fmt.Fprintln(os.Stderr, "probe: no round trips:", firstErr)
		return 1
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	fmt.Fprintln(stdout, int64(lats[len(lats)/2]))
	return 0
}

// probeHost runs the probe n times in child processes and returns each
// reading.
func probeHost(n int) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary for the host probe: %w", err)
	}
	var out []time.Duration
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("host probe: %w: %s", err, strings.TrimSpace(stderr.String()))
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil || ns <= 0 {
			return nil, errors.New("host probe printed no round-trip time")
		}
		out = append(out, time.Duration(ns))
	}
	return out, nil
}

// hostReadings collects one run's probe readings: those around setup
// scale setup_s, those around and inside the measured phase scale its
// times. The first error stops further probing and is kept.
type hostReadings struct {
	setup, phase []time.Duration
	spent        time.Duration // wall time spent probing
	err          error
}

// take runs n probes and appends their readings to each of dst.
func (h *hostReadings) take(n int, dst ...*[]time.Duration) {
	if h.err != nil {
		return
	}
	start := time.Now()
	p, err := probeHost(n)
	h.spent += time.Since(start)
	h.err = err
	for _, d := range dst {
		*d = append(*d, p...)
	}
}

// pause runs while the measured phase's workers wait between segments.
// It finishes the garbage collection the segment left, so the probe does
// not share the CPUs with this process's mark workers, then takes one
// reading.
func (h *hostReadings) pause() {
	runtime.GC()
	h.take(1, &h.phase)
}

// usList renders readings in microseconds.
func usList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// atReferenceSpeed converts a value measured while the host probe read
// probeUs into the value the host would have shown with the probe at
// probeRef: times scale with the probe, rates inversely, and sizes not
// at all.
func atReferenceSpeed(unit string, v, probeUs float64) float64 {
	k := math.Pow(us(probeRef)/probeUs, probeExponent)
	switch unit {
	case "s", "ms":
		return v * k
	case "1/s":
		return v / k
	}
	return v
}
