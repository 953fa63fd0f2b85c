package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smallSizes shrink every workload so the whole suite runs in seconds.
var smallSizes = map[string]int{
	"counter-1m":    20_000,
	"rtlinux-batch": 2_000,
	"live-serial":   600,
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func small(name string, traced bool) options {
	return options{workload: name, seconds: 0, trace: traced, setups: 1, size: smallSizes[name]}
}

// TestEveryMetricEmitted runs each workload at a small size, untraced
// and traced, and checks that the result carries exactly the metrics
// BENCHMARK.json names, with their units, and that nothing failed.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := run(small(w.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %s, BENCHMARK.json says %s", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTracedSplitCoversLearn checks the traced learn's spans account
// for its wall time.
func TestTracedSplitCoversLearn(t *testing.T) {
	for _, w := range workloads {
		res, rep, err := run(small(w.name, true))
		if err != nil {
			t.Fatal(err)
		}
		wall := rep.Summaries["traced.learn_ms"].Median
		if un := res.Metrics["traced.unattributed_ms"].Value; un > 0.05*wall {
			t.Errorf("%s: %.3f ms of a %.3f ms traced learn is outside every span", w.name, un, wall)
		}
	}
}

// TestGateTripsOnWrongPin gives the gate a wrong pinned digest: every
// learn must then fail, and the result must say so.
func TestGateTripsOnWrongPin(t *testing.T) {
	for _, name := range []string{"counter-1m", "live-serial"} {
		o := small(name, false)
		res, rep, err := run(o)
		if err != nil || !res.Correct {
			t.Fatalf("%s: reference run failed: %v %+v", name, err, res)
		}
		o.pin = &pin{Digest: strings.Repeat("0", 64), States: rep.States}
		res, rep, err = run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || rep.ErrorRate == 0 {
			t.Errorf("%s: wrong pin went unnoticed: correct=%v failed=%d error_rate=%v", name, res.Correct, res.Failed, rep.ErrorRate)
		}
	}
}

// TestPinsCoverWorkloads checks pins.json pins every workload.
func TestPinsCoverWorkloads(t *testing.T) {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if p, ok := pins[w.name]; !ok || len(p.Digest) != 64 || p.States == 0 {
			t.Errorf("pins.json has no usable pin for %s: %+v", w.name, p)
		}
	}
}
