package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// memSampler tracks peak HeapAlloc and RSS on a background ticker, the
// way cmd/loadgen's memory sweep samples them.
type memSampler struct {
	stopCh   chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	peakHeap uint64
	peakRSS  uint64
}

func newMemSampler(every time.Duration) *memSampler {
	s := &memSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss := readRSS()
	s.mu.Lock()
	s.peakHeap = max(s.peakHeap, ms.HeapAlloc)
	s.peakRSS = max(s.peakRSS, rss)
	s.mu.Unlock()
}

// stop waits for the ticker goroutine to exit, takes a final sample and
// returns the peaks.
func (s *memSampler) stop() (peakHeap, peakRSS uint64) {
	close(s.stopCh)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakHeap, s.peakRSS
}

// readRSS returns the process resident set in bytes from
// /proc/self/statm (0 where procfs is unavailable).
func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
