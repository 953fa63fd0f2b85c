package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailQuantile is the highest percentile with at least ten samples
// above it, rounded down to a whole percent; 0 when there are too few
// samples for any percentile at or above the median.
func tailQuantile(n int) float64 {
	q := float64(int(100*(1-10/float64(n)))) / 100
	if n < 20 || q < 0.5 {
		return 0
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

const mib = 1 << 20

// runtimeReader reads one runtime/metrics counter without stopping the
// world.
type runtimeReader struct{ s []metrics.Sample }

func newRuntimeReader(name string) *runtimeReader {
	return &runtimeReader{s: []metrics.Sample{{Name: name}}}
}

func (r *runtimeReader) read() uint64 {
	metrics.Read(r.s)
	return r.s[0].Value.Uint64()
}

var (
	heapObjects = newRuntimeReader("/memory/classes/heap/objects:bytes")
	heapAllocs  = newRuntimeReader("/gc/heap/allocs:bytes")
	gcCycles    = newRuntimeReader("/gc/cycles/total:gc-cycles")
)

// heapPeak samples the heap held by objects every millisecond from
// start until stop, which returns the largest sample.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{}), peak: heapObjects.read()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		r := newRuntimeReader(heapObjects.s[0].Name)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				if v := r.read(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	if v := heapObjects.read(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// host is the fingerprint every result carries: figures taken on
// different core counts or CPUs must never be compared.
type host struct {
	NumCPU           int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	PredicateWorkers int    `json:"predicate_workers"`
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		// LearnOptions.Workers 0 resolves to one predicate worker per
		// GOMAXPROCS (predicate.Generator.workers).
		PredicateWorkers: runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		CPUModel:         cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
