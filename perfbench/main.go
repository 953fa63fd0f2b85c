// Command perfbench is the repository benchmark: one process that
// drives the public entry points of each module in a closed loop with a
// single client, one operation at a time, on three workloads of long
// traces. The program's own workers stay at their default (-j 0, one
// per GOMAXPROCS).
//
// A run with --trace 0 measures the end-to-end metrics with no tracing:
// time to learn a model (learn_ms), time to check a trace against the
// saved model (check_ms), the heap a learn adds at its peak
// (peak_heap_mb) and set-up time (setup_s). A run with --trace 1 runs
// the same operations decomposed into the calls they make, one span per
// call into a layer, and reports the per-layer metrics. Every operation
// passes through the correctness gate (see gate and the traced learn).
//
// The last line of standard output is the result object; the lines
// before it name the host and each metric's sample count, and the full
// report, spans included, goes to a JSON file under --out.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload counter-1m --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics.
var endToEnd = []metricDef{
	{"learn_ms", "ms"},
	{"check_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the --trace 1 metrics, every one on every workload; a
// layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"trace.decode_ms", "ms"},
	{"trace.obs", "count"},
	{"trace.bytes", "bytes"},
	{"predicate.sequence_ms", "ms"},
	{"predicate.sequence_ms.j1", "ms"},
	{"predicate.windows", "count"},
	{"predicate.memo_hits", "count"},
	{"predicate.memo_hit_ratio", "ratio"},
	{"predicate.unique_windows", "count"},
	{"predicate.runs", "count"},
	{"predicate.alloc_mb", "MB"},
	{"synth.ms", "ms"},
	{"synth.calls", "count"},
	{"synth.seed_hits", "count"},
	{"synth.seed_hit_ratio", "ratio"},
	{"learn.model_ms", "ms"},
	{"learn.solver_calls", "count"},
	{"learn.refinements", "count"},
	{"learn.accept_refinements", "count"},
	{"learn.segments", "count"},
	{"learn.states", "count"},
	{"learn.alloc_mb", "MB"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.learned", "count"},
	{"sat.conflicts_per_s", "1/s"},
	{"core.write_model_ms", "ms"},
	{"core.read_model_ms", "ms"},
	{"core.model_bytes", "bytes"},
	{"core.abstract_ms", "ms"},
	{"automaton.accepts_ms", "ms"},
	{"live.feed_ms", "ms"},
	{"live.feeds", "count"},
	{"live.revisions", "count"},
	{"live.revision_ms.p50", "ms"},
	{"live.revision_ms.max", "ms"},
	{"live.versions", "count"},
	{"live.divergences", "count"},
	{"live.solver_calls", "count"},
	{"live.fastpath_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"traced.unattributed_ms", "ms"},
	{"traced.overhead_ratio", "ratio"},
}

//go:embed pins.json
var pinsJSON []byte

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	setups   int  // set-ups per run; setup_s is their median
	size     int  // observations; 0 keeps the workload's own size
	pin      *pin // overrides pins.json (the gate's self-test)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: counter-1m, rtlinux-batch, live-serial")
	flag.Int64Var(&o.seed, "seed", 0, "run seed, recorded in the report (every workload's input is canonical; see workloads)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure for this many seconds after set-up")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the full report, spans included, under this directory")
	flag.Parse()
	o.trace = traceFlag == 1
	o.setups = 3
	res, rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, o.out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary describes one metric's samples.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// Tail is the value at quantile TailQ, the highest percentile with
	// at least ten samples above it (absent with fewer than 20 samples).
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// report is everything a run measured.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Host     host   `json:"host"`
	// The reference model: the first set-up's learn, which every
	// later learn must reproduce.
	Digest      string             `json:"model_digest"`
	States      int                `json:"model_states"`
	Versions    int                `json:"live_versions"`
	Divergences int64              `json:"live_divergences"`
	Pinned      bool               `json:"pinned"`
	ErrorRate   float64            `json:"error_rate"`
	Failures    []string           `json:"failures,omitempty"`
	Summaries   map[string]summary `json:"metrics"`
	Spans       []span             `json:"spans,omitempty"`
}

// runner holds one run's input, reference outcome and tallies.
type runner struct {
	w       workload
	data    []byte
	ref     outcome
	pin     *pin
	samples map[string][]float64

	attempted, failed int
	failures          []string
}

// record counts one operation; it fails when err or the gate's verdict
// is non-nil. It reports whether the operation succeeded.
func (r *runner) record(err error, gate func() error) bool {
	r.attempted++
	if err == nil && gate != nil {
		err = gate()
	}
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

func (r *runner) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *runner) addAll(s map[string]float64) {
	for k, v := range s {
		r.add(k, v)
	}
}

func run(o options) (*result, *report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if o.size == 0 && o.pin == nil {
		var pins map[string]pin
		if err := json.Unmarshal(pinsJSON, &pins); err != nil {
			return nil, nil, fmt.Errorf("pins.json: %w", err)
		}
		if p, ok := pins[w.name]; ok {
			o.pin = &p
		}
	}
	if o.size > 0 {
		w.size = o.size
	}

	r := &runner{w: w, pin: o.pin, samples: map[string][]float64{}}
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		d, out, err := setup(w)
		if err != nil {
			return nil, nil, err
		}
		r.add("setup_s", time.Since(t0).Seconds())
		if i == 0 {
			r.data, r.ref = d, out
		} else if string(d) != string(r.data) || out.digest != r.ref.digest {
			return nil, nil, errors.New("set-up is not deterministic: a repeated set-up produced a different trace or model")
		}
	}

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var spans []span
	if o.trace {
		if spans, err = r.traced(deadline); err != nil {
			return nil, nil, err
		}
		if u := median(r.samples["untraced.learn_ms"]); u > 0 {
			r.samples["traced.overhead_ratio"] = []float64{median(r.samples["traced.learn_ms"]) / u}
		}
	} else {
		r.untraced(deadline)
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	rep := &report{
		Workload: w.name, Seed: o.seed, Traced: o.trace,
		Host: fingerprint(), Pinned: r.pin != nil, Failures: r.failures,
		Digest: r.ref.digest, States: r.ref.states, Versions: r.ref.versions, Divergences: r.ref.divergences,
		ErrorRate: float64(r.failed) / float64(r.attempted),
		Summaries: map[string]summary{}, Spans: spans,
	}
	for name, xs := range r.samples {
		sm := summary{N: len(xs), Median: median(xs)}
		if q := tailQuantile(len(xs)); q > 0 {
			sm.TailQ, sm.Tail = q, quantile(xs, q)
		}
		rep.Summaries[name] = sm
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: median(r.samples[d.name]), Unit: d.unit}
	}
	return res, rep, nil
}

// setup renders the workload's trace and warms up with one learn and
// one check; the first set-up's outcome is the run's reference.
func setup(w workload) ([]byte, outcome, error) {
	data, err := w.gen(w.size)
	if err != nil {
		return nil, outcome{}, fmt.Errorf("generate %s: %w", w.name, err)
	}
	out, err := w.learn(data)
	if err != nil {
		return nil, outcome{}, fmt.Errorf("set-up learn: %w", err)
	}
	if err := w.check(data, out.model); err != nil {
		return nil, outcome{}, fmt.Errorf("set-up check: %w", err)
	}
	return data, out, nil
}

// untraced measures the end-to-end metrics: learn then check, repeated
// until the deadline, each after a full collection so every operation
// starts from the same heap.
func (r *runner) untraced(deadline time.Time) {
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		runtime.GC()
		base := heapObjects.read()
		hp := startHeapPeak()
		t0 := time.Now()
		out, err := r.w.learn(r.data)
		d := time.Since(t0)
		peak := max(hp.stop(), base)
		if !r.record(err, func() error { return gate(out, r.ref, r.pin) }) {
			continue
		}
		r.add("learn_ms", ms(d))
		r.add("peak_heap_mb", float64(peak-base)/mib)

		// Checks repeat until they add up to checkBudget, so a workload
		// whose check takes milliseconds still gets a steady median.
		for spent := time.Duration(0); spent < checkBudget; {
			runtime.GC()
			t0 = time.Now()
			err = r.w.check(r.data, out.model)
			d := time.Since(t0)
			spent += d
			if !r.record(err, nil) {
				break
			}
			r.add("check_ms", ms(d))
		}
	}
}

// checkBudget is the least time an untraced iteration spends checking.
const checkBudget = 50 * time.Millisecond

// write prints the host and each metric's sample count, then saves the
// full report under dir (when set).
func (rep *report) write(w io.Writer, dir string) error {
	h := rep.Host
	fmt.Fprintf(w, "# host: nproc=%d gomaxprocs=%d predicate_workers=%d go=%s cpu=%q\n",
		h.NumCPU, h.GOMAXPROCS, h.PredicateWorkers, h.GoVersion, h.CPUModel)
	fmt.Fprintf(w, "# workload=%s seed=%d traced=%v error_rate=%g\n",
		rep.Workload, rep.Seed, rep.Traced, rep.ErrorRate)
	fmt.Fprintf(w, "# model=%s states=%d live_versions=%d live_divergences=%d pinned=%v\n",
		rep.Digest, rep.States, rep.Versions, rep.Divergences, rep.Pinned)
	names := make([]string, 0, len(rep.Summaries))
	for name := range rep.Summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rep.Summaries[name]
		fmt.Fprintf(w, "# %-26s median %-14.6g n=%d", name, s.Median, s.N)
		if s.TailQ > 0 {
			fmt.Fprintf(w, " p%.0f %.6g", 100*s.TailQ, s.Tail)
		}
		fmt.Fprintln(w)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "# failure:", f)
	}
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	traced := 0
	if rep.Traced {
		traced = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, traced)
	return os.WriteFile(filepath.Join(dir, name), js, 0o644)
}
