// Command repro regenerates the paper's evaluation: the learned-model
// figures (Fig 1b, 2b, 3, 4, 5, 6), the runtime tables (Table I and
// Table II), the scalability plot (Fig 7) and the ablations DESIGN.md
// adds. Results are printed as text tables; figures can additionally
// be written as Graphviz DOT files.
//
// Usage:
//
//	repro -exp all                       # everything (long)
//	repro -exp figures [-dotdir DIR]     # learn all six models
//	repro -exp fig5                      # one figure
//	repro -exp table1 [-full-timeout D]
//	repro -exp table2 [-merge-timeout D]
//	repro -exp fig7 [-max-exp K]
//	repro -exp ablation-w | ablation-l | synth-styles | coverage
//	repro -exp active [-active-out BENCH_active.json]
//	repro -exp memo [-memo-out BENCH_memo.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/runlog"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: all, figures, fig1b, fig2, fig3, fig4, fig5, fig6, fig7, table1, table2, ablation-w, ablation-l, synth-styles, coverage, ingest, solve, active, memo")
		activeOut    = flag.String("active-out", "", "with -exp active: also write the results as a BENCH_active.json document to this file")
		solveOut     = flag.String("solve-out", "", "with -exp solve: also write the results as a BENCH_solve.json document to this file")
		memoOut      = flag.String("memo-out", "", "with -exp memo: also write the results as a BENCH_memo.json document to this file")
		dotDir       = flag.String("dotdir", "", "write learned automata as DOT files into this directory")
		fullTimeout  = flag.Duration("full-timeout", 60*time.Second, "timeout for non-segmented runs (Table I, Fig 7)")
		mergeTimeout = flag.Duration("merge-timeout", 60*time.Second, "timeout for state-merge runs (Table II)")
		maxExp       = flag.Int("max-exp", 15, "largest 2^k trace length for Fig 7")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof/ on this address; counters accumulate across experiment runs")
		synthCache   = flag.String("synth-cache", "", "share synthesized window predicates across experiment runs via this cache directory (identical results, warm runs faster)")
		runLog       = flag.String("run-log", "", "append this evaluation's record to the run archive at this directory (see cmd/runstats)")
	)
	flag.Parse()
	if *synthCache != "" {
		scache, err := repro.OpenSynthCache(*synthCache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		experiments.SynthCache = scache
	}

	// SIGINT/SIGTERM abort the evaluation at the next observation or
	// solver-round boundary instead of leaving a half-printed table; a
	// second signal (handler unregistered once cancelled) kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	experiments.Context = ctx
	if *metricsAddr != "" {
		experiments.Telemetry = &repro.Telemetry{Registry: repro.NewRegistry()}
		srv, err := repro.ServeMetrics(*metricsAddr, experiments.Telemetry.Registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "repro: metrics listening on %s\n", srv.URL())
	}
	if *runLog != "" && experiments.Telemetry == nil {
		// Without a metrics endpoint the record still wants the
		// accumulated counters, so attach a registry either way.
		experiments.Telemetry = &repro.Telemetry{Registry: repro.NewRegistry()}
	}
	start := time.Now()
	if err := run(*exp, *dotDir, *activeOut, *memoOut, *solveOut, *fullTimeout, *mergeTimeout, *maxExp); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	if *runLog != "" {
		if err := writeRunRecord(*runLog, *exp, time.Since(start)); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
	}
}

// writeRunRecord archives one evaluation invocation: which experiment
// ran, how long it took, and the telemetry counters accumulated across
// its runs.
func writeRunRecord(dir, exp string, elapsed time.Duration) error {
	store, err := runlog.Open(dir)
	if err != nil {
		return err
	}
	rec := &runlog.Record{
		Version:   runlog.RecordVersion,
		Tool:      "repro",
		CreatedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Config:    map[string]any{"exp": exp},
		WallMS:    float64(elapsed.Microseconds()) / 1e3,
		Verdict:   runlog.VerdictOK,
	}
	if tel := experiments.Telemetry; tel != nil && tel.Registry != nil {
		rec.Counters = tel.Registry.CounterValues()
		rec.Histograms = tel.Registry.Summaries()
	}
	_, err = store.Put(rec)
	return err
}

var figureCase = map[string]string{
	"fig1b": "USB Slot", "fig2": "Serial I/O Port", "fig3": "USB Attach",
	"fig4": "Integrator", "fig5": "Counter", "fig6": "Linux Kernel",
}

func run(exp, dotDir, activeOut, memoOut, solveOut string, fullTimeout, mergeTimeout time.Duration, maxExp int) error {
	switch {
	case exp == "all":
		for _, e := range []string{"figures", "table1", "table2", "fig7", "ablation-w", "ablation-l", "ablation-sym", "synth-styles", "coverage", "invariants", "properties", "solve", "active", "memo"} {
			if err := run(e, dotDir, activeOut, memoOut, solveOut, fullTimeout, mergeTimeout, maxExp); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case exp == "figures":
		for _, f := range []string{"fig1b", "fig3", "fig5", "fig2", "fig4", "fig6"} {
			if err := runFigure(f, dotDir); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case figureCase[exp] != "":
		return runFigure(exp, dotDir)
	case exp == "table1":
		return runTable1(fullTimeout)
	case exp == "table2":
		return runTable2(mergeTimeout)
	case exp == "fig7":
		return runFig7(fullTimeout, maxExp)
	case exp == "ablation-w":
		return runAblationW()
	case exp == "ablation-l":
		return runAblationL()
	case exp == "ablation-sym":
		return runAblationSym()
	case exp == "synth-styles":
		return runSynthStyles()
	case exp == "coverage":
		return runCoverage()
	case exp == "ingest":
		return runIngest()
	case exp == "solve":
		return runSolve(solveOut)
	case exp == "active":
		return runActive(activeOut)
	case exp == "memo":
		return runMemo(memoOut)
	case exp == "invariants":
		return runInvariants()
	case exp == "properties":
		return runProperties()
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func runFigure(fig, dotDir string) error {
	c, err := experiments.CaseByName(figureCase[fig])
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := experiments.LearnCase(c, 0)
	if err != nil {
		return err
	}
	fmt.Printf("== %s (%s): learned %d states (paper: %d) in %s\n",
		fig, c.Name, m.States, c.PaperStates, time.Since(start).Round(time.Millisecond))
	fmt.Print(pipeline.Format(m.Stages))
	fmt.Print(m.Automaton.String())
	if fig == "fig2" {
		// Fig 2 contrasts the state-merge model (2a) with ours (2b).
		tr, err := c.Generate()
		if err != nil {
			return err
		}
		base, err := repro.LearnBaseline(repro.MINT, [][]string{repro.Tokenize(tr)}, repro.BaselineOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("fig2a (state merge): %d states\n", base.States)
	}
	if dotDir != "" {
		if err := os.MkdirAll(dotDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dotDir, fig+".dot")
		if err := os.WriteFile(path, []byte(m.Automaton.DOT(c.Name)), 0o644); err != nil {
			return err
		}
		fmt.Printf("DOT written to %s\n", path)
	}
	return nil
}

func runTable1(fullTimeout time.Duration) error {
	fmt.Println("== Table I: segmented vs non-segmented model construction")
	fmt.Printf("%-16s %3s %8s %14s %14s\n", "Example", "N", "Len", "Full Trace", "Segmented")
	rows, err := experiments.Table1(experiments.Cases(), fullTimeout)
	if err != nil {
		return err
	}
	for _, r := range rows {
		full := r.FullTime.Round(time.Millisecond).String()
		if r.FullTimedOut {
			full = fmt.Sprintf(">%s (timeout)", fullTimeout)
		}
		fmt.Printf("%-16s %3d %8d %14s %14s\n",
			r.Name, r.States, r.TraceLen, full, r.SegmentedTime.Round(time.Millisecond))
	}
	return nil
}

func runTable2(mergeTimeout time.Duration) error {
	fmt.Println("== Table II: state merge vs model learning")
	fmt.Printf("%-16s %8s | %12s %10s | %12s %8s\n",
		"Example", "Len", "Merge time", "states", "Learn time", "states")
	rows, err := experiments.Table2(experiments.Cases(), mergeTimeout)
	if err != nil {
		return err
	}
	for _, r := range rows {
		mt := r.MergeTime.Round(time.Millisecond).String()
		ms := fmt.Sprintf("%d", r.MergeStates)
		if r.MergeTimedOut {
			mt = "timeout"
			ms = "no model"
		}
		fmt.Printf("%-16s %8d | %12s %10s | %12s %8d   (paper: %s vs %d)\n",
			r.Name, r.TraceLen, mt, ms,
			r.LearnTime.Round(time.Millisecond), r.LearnStates,
			r.PaperMergeStates, r.PaperLearnStates)
	}
	return nil
}

func runFig7(fullTimeout time.Duration, maxExp int) error {
	fmt.Println("== Fig 7: runtime vs trace length (integrator), log-log series")
	var lengths []int
	for k := 6; k <= maxExp; k++ {
		lengths = append(lengths, 1<<k)
	}
	points, err := experiments.Fig7(lengths, fullTimeout)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %16s %16s\n", "len", "segmented", "non-segmented")
	for _, p := range points {
		full := p.FullTime.Round(time.Millisecond).String()
		if p.FullTimedOut {
			full = "timeout"
		}
		fmt.Printf("%10d %16s %16s\n", p.TraceLen, p.SegmentedTime.Round(time.Millisecond), full)
	}
	return nil
}

func runAblationW() error {
	fmt.Println("== Ablation: segmentation window w (states must agree; §III-C)")
	c, err := experiments.CaseByName("Counter")
	if err != nil {
		return err
	}
	rows, err := experiments.AblationWindow(c, []int{2, 3, 4, 5, 6, 8}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %8s %10s %12s\n", "w", "states", "segments", "time")
	for _, r := range rows {
		fmt.Printf("%4d %8d %10d %12s\n", r.Window, r.States, r.Segments, r.Time.Round(time.Millisecond))
	}
	return nil
}

func runAblationL() error {
	fmt.Println("== Ablation: compliance length l (§III-C generalisation trade-off)")
	c, err := experiments.CaseByName("Counter")
	if err != nil {
		return err
	}
	rows, err := experiments.AblationCompliance(c, []int{1, 2, 3}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %8s %12s\n", "l", "states", "time")
	for _, r := range rows {
		fmt.Printf("%4d %8d %12s\n", r.L, r.States, r.Time.Round(time.Millisecond))
	}
	return nil
}

func runAblationSym() error {
	fmt.Println("== Ablation: state-ordering symmetry breaking (DESIGN.md §5 design choice)")
	// The four quick cases; rtlinux/integrator dominate on trace
	// generation rather than search and add little signal here.
	cases := experiments.Cases()[:4]
	rows, err := experiments.AblationSymmetry(cases, 2*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %8s %12s %14s\n", "Example", "states", "with", "without")
	for _, r := range rows {
		fmt.Printf("%-16s %8d %12s %14s\n", r.Name, r.States,
			r.WithTime.Round(time.Millisecond), r.WithoutTime.Round(time.Millisecond))
	}
	return nil
}

func runSynthStyles() error {
	fmt.Println("== Synthesis styles (§VII): minimal enumerative CEGIS vs trivial ite chain")
	rows, err := experiments.SynthStyles()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-30s minimal: %-30s (size %2d)   trivial: %s (size %d)\n",
			r.Name, r.MinimalExpr, r.MinimalSize, r.TrivialExpr, r.TrivialSize)
	}
	return nil
}

func runProperties() error {
	fmt.Println("== Safety properties of learned models (paper conclusion: models as invariants)")
	rows, err := experiments.CheckProperties()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r.Describe())
	}
	return nil
}

func runInvariants() error {
	fmt.Println("== Candidate state invariants (paper conclusion: models as inductive invariants)")
	for _, name := range []string{"Counter", "Integrator"} {
		c, err := experiments.CaseByName(name)
		if err != nil {
			return err
		}
		tr, err := c.Generate()
		if err != nil {
			return err
		}
		p, err := repro.NewPipeline(tr.Schema(), c.Options)
		if err != nil {
			return err
		}
		m, err := p.Learn(tr)
		if err != nil {
			return err
		}
		invs, err := m.StateInvariants(tr, 4)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d states):\n", name, m.States)
		for _, inv := range invs {
			fmt.Printf("  q%d (visited %6d×): %s\n", inv.State+1, inv.Visits, inv.Expr)
		}
	}
	return nil
}

func runIngest() error {
	fmt.Println("== Ingestion: batch vs streaming (modular-counter CSV traces)")
	rows, err := experiments.RunIngest([]int{100_000, 1_000_000})
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s %12s %12s %12s %12s %7s %10s\n",
		"steps", "batch", "stream", "batch peak", "stream peak", "obs/s", "states", "identical")
	for _, r := range rows {
		fmt.Printf("%10d %12s %12s %11.1fM %11.1fM %12d %7d %10t\n",
			r.Steps,
			r.BatchWall.Round(time.Millisecond), r.StreamWall.Round(time.Millisecond),
			float64(r.BatchPeak)/1e6, float64(r.StreamPeak)/1e6,
			r.ObsPerSec, r.States, r.Identical)
	}
	return nil
}

func runSolve(solveOut string) error {
	fmt.Println("== Solver throughput: conflicts/sec on a PHP refutation and inside learning runs")
	rows, err := experiments.RunSolve()
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %8s %10s %12s %12s %12s %14s %7s\n",
		"workload", "status", "wall", "conflicts", "learned", "conflicts/s", "props/s", "states")
	for _, r := range rows {
		states := ""
		if r.States > 0 {
			states = fmt.Sprintf("%d", r.States)
		}
		fmt.Printf("%-22s %8s %8.0fms %12d %12d %12.0f %14.0f %7s\n",
			r.Name, r.Status, r.WallMS, r.Conflicts, r.Learned, r.ConflictsPS, r.PropsPS, states)
	}
	if solveOut != "" {
		if err := pipeline.AtomicWriteFile(solveOut, func(w io.Writer) error {
			return experiments.WriteSolveBench(w, rows)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", solveOut)
	}
	return nil
}

func runActive(activeOut string) error {
	fmt.Println("== Active probing: refinement from truncated seed traces")
	rows, err := experiments.RunActive()
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s %10s %8s %11s %11s %7s %10s %10s\n",
		"system", "seed obs", "full obs", "rounds", "divergences", "stabilized", "states", "identical", "wall")
	for _, r := range rows {
		fmt.Printf("%10s %10d %10d %8d %11d %11t %7d %10t %9.0fms\n",
			r.System, r.SeedObs, r.FullObs, r.Rounds, r.Divergences,
			r.Stabilized, r.States, r.Identical, r.WallMS)
	}
	if activeOut != "" {
		if err := pipeline.AtomicWriteFile(activeOut, func(w io.Writer) error {
			return experiments.WriteActiveBench(w, rows)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", activeOut)
	}
	return nil
}

func runMemo(memoOut string) error {
	fmt.Println("== Synthesis cache: disabled vs cold vs warm vs shared vs corrupted")
	rows, err := experiments.RunMemo()
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %7s %10s %10s %10s %7s %6s %8s %10s\n",
		"example", "states", "disabled", "cold", "warm", "stores", "hits", "corrupt", "identical")
	for _, r := range rows {
		identical := r.ColdIdentical && r.WarmIdentical && r.SharedIdentical && r.CorruptIdentical
		fmt.Printf("%-16s %7d %8.0fms %8.0fms %8.0fms %7d %6d %8d %10t\n",
			r.Name, r.States, r.DisabledMS, r.ColdMS, r.WarmMS,
			r.ColdStores, r.WarmHits, r.CorruptDetected, identical)
	}
	if memoOut != "" {
		if err := pipeline.AtomicWriteFile(memoOut, func(w io.Writer) error {
			return experiments.WriteMemoBench(w, rows)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", memoOut)
	}
	return nil
}

func runCoverage() error {
	fmt.Println("== USB Slot coverage (§IV: unexercised datasheet transitions)")
	c, err := experiments.CaseByName("USB Slot")
	if err != nil {
		return err
	}
	m, err := experiments.LearnCase(c, 0)
	if err != nil {
		return err
	}
	rep := experiments.SlotCoverage(m)
	fmt.Printf("exercised: %s\n", strings.Join(rep.Exercised, ", "))
	fmt.Printf("missing:   %s\n", strings.Join(rep.Missing, ", "))
	return nil
}
