package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/experiments"
	"repro/internal/systems/rtlinux"
	"repro/internal/systems/serial"
	"repro/internal/trace"
)

// kind selects which operations a workload runs.
type kind int

const (
	// streamKind learns with repro.LearnSource and checks with
	// Model.CheckSource: the t2m -stream / monitor -stream path.
	streamKind kind = iota
	// batchKind collects the trace, learns with repro.Learn and checks
	// with Model.Check: t2m's default, non-streaming path.
	batchKind
	// liveKind follows the trace with a live maintainer and saves the
	// live model: the monitor -live path.
	liveKind
)

// workload is one input the benchmark runs. The program under test
// only ever sees the bytes gen produces.
type workload struct {
	name   string
	kind   kind
	events bool // events format (one symbol per line) instead of CSV
	size   int  // observations (events for rtlinux)
	gen    func(size int) ([]byte, error)
}

// workloads lists every workload. Each renders its system's canonical
// trace, so every --seed gets the same inputs. Schedule seeds are not
// varied because they change the learning problem itself, by more than
// any bound the benchmark could keep: serial schedule seeds 1-10 learn
// models of 6 to 9 states in 0.4 s to 35 s at 200k observations, and
// RT-Linux seeds 1-5 move learn_ms between 150 ms and 220 ms.
var workloads = []workload{
	{name: "counter-1m", kind: streamKind, size: 1_000_000, gen: genCounter},
	{name: "rtlinux-batch", kind: batchKind, events: true, size: 20_165, gen: genRTLinux},
	{name: "live-serial", kind: liveKind, size: 2_076, gen: genSerial},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// genCounter streams size observations of the mod-8 counter as CSV,
// exactly as tracegen -system counter -steps SIZE does.
func genCounter(size int) ([]byte, error) {
	var buf bytes.Buffer
	err := experiments.StreamScheduleCSV(&buf, "counter", 0, size)
	return buf.Bytes(), err
}

// genRTLinux renders the RT-Linux scheduler simulation as an events
// log, as tracegen -system rtlinux -n SIZE does.
func genRTLinux(size int) ([]byte, error) {
	cfg := rtlinux.DefaultConfig()
	cfg.Events = size
	sim, err := rtlinux.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, err := sim.Run()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = trace.WriteEvents(&buf, tr)
	return buf.Bytes(), err
}

// genSerial renders the paper's serial-port trace as CSV, as tracegen
// -system serial -n SIZE does.
func genSerial(size int) ([]byte, error) {
	w := serial.DefaultWorkload()
	w.Observations = size
	tr, err := w.Run()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = trace.WriteCSV(&buf, tr)
	return buf.Bytes(), err
}

// source opens a fresh decoder over the workload bytes. The bytes are
// borrowed, not copied, as t2m and monitor do over a mapped file.
func (w workload) source(data []byte) (repro.Source, error) {
	if w.events {
		return repro.NewEventsSource(trace.NewBytes(data)), nil
	}
	return repro.NewCSVSource(trace.NewBytes(data))
}
