package trace

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/expr"
)

// trackedReader records Close calls so the tests can prove Collect's
// error path releases the input and its success path does not.
type trackedReader struct {
	io.Reader
	closes   int
	closeErr error
}

func (t *trackedReader) Close() error {
	t.closes++
	return t.closeErr
}

// failingReader yields its prefix, then a read error — a truncated
// file or a torn pipe mid-stream.
type failingReader struct {
	io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.Reader.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

// TestCollectClosesOnError injects decode errors into every source
// type and asserts Collect closes the underlying reader exactly once —
// no leaked descriptors when a decode is abandoned mid-stream.
func TestCollectClosesOnError(t *testing.T) {
	cases := []struct {
		name string
		open func(r io.Reader) (Source, error)
		data string                    // decodes for a while, then fails
		wrap func(io.Reader) io.Reader // optional extra layer under the tracked closer
	}{
		{
			name: "csv bad field",
			open: func(r io.Reader) (Source, error) { return NewCSVSource(r) },
			data: "x:int\n1\n2\nnot-a-number\n",
		},
		{
			name: "csv short row",
			open: func(r io.Reader) (Source, error) { return NewCSVSource(r) },
			data: "x:int,y:int\n1,2\n3\n",
		},
		{
			name: "events read error",
			open: func(r io.Reader) (Source, error) { return NewEventsSource(r), nil },
			data: "open\nclose\n",
			wrap: func(r io.Reader) io.Reader { return &failingReader{Reader: r, err: errors.New("torn pipe")} },
		},
		{
			name: "ftrace bad line",
			open: func(r io.Reader) (Source, error) { return NewFtraceSource(r, "", nil), nil },
			data: "          task-1     [000] d..2.    42.000001: sched_switch\nnot an ftrace line\n",
		},
		{
			name: "vcd bad value change",
			open: func(r io.Reader) (Source, error) { return NewVCDSource(r, nil) },
			data: "$var wire 1 ! clk $end\n$enddefinitions $end\n$dumpvars\n1!\n$end\n#1\n0!\ngarbage\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inner io.Reader = strings.NewReader(tc.data)
			if tc.wrap != nil {
				inner = tc.wrap(inner)
			}
			tr := &trackedReader{Reader: inner}
			src, err := tc.open(tr)
			if err != nil {
				t.Fatalf("constructor failed: %v", err)
			}
			if _, err := Collect(src); err == nil {
				t.Fatal("Collect succeeded, want decode error")
			}
			if tr.closes != 1 {
				t.Fatalf("underlying reader closed %d times, want 1", tr.closes)
			}
			// A second Close (a caller's defer) must not reach the
			// reader again.
			if err := src.(io.Closer).Close(); err != nil {
				t.Fatalf("idempotent Close: %v", err)
			}
			if tr.closes != 1 {
				t.Fatalf("Close not idempotent: reader closed %d times", tr.closes)
			}
		})
	}
}

// TestCollectLeavesSuccessOpen: when the whole stream decodes, the
// caller still owns the reader — Collect must not close it.
func TestCollectLeavesSuccessOpen(t *testing.T) {
	tr := &trackedReader{Reader: strings.NewReader("x:int\n1\n2\n3\n")}
	src, err := NewCSVSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("collected %d observations, want 3", got.Len())
	}
	if tr.closes != 0 {
		t.Fatalf("reader closed %d times on success, want 0", tr.closes)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.closes != 1 {
		t.Fatalf("explicit Close reached the reader %d times, want 1", tr.closes)
	}
}

// TestCollectJoinsCloseError: a failing Close on the error path is
// reported alongside the decode error, not swallowed and not
// replacing it.
func TestCollectJoinsCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	tr := &trackedReader{Reader: strings.NewReader("x:int\nbogus\n"), closeErr: closeErr}
	src, err := NewCSVSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(src)
	if err == nil {
		t.Fatal("Collect succeeded, want decode error")
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("close error not joined: %v", err)
	}
	if !strings.Contains(err.Error(), "bogus") && !strings.Contains(err.Error(), "invalid syntax") {
		t.Fatalf("decode error lost: %v", err)
	}
}

// TestCollectNonCloserSource: sources over plain byte readers (no
// Close method on the reader) still close without error, and Collect's
// error path tolerates sources that are not io.Closers at all.
func TestCollectNonCloserSource(t *testing.T) {
	src, err := NewCSVSource(strings.NewReader("x:int\nbogus\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(src); err == nil {
		t.Fatal("Collect succeeded, want decode error")
	}
	if err := src.Close(); err != nil {
		t.Fatalf("Close over a non-closer reader: %v", err)
	}

	// TraceSource has no Close; Collect must not require one. An
	// Append-path error needs a schema mismatch, which TraceSource
	// cannot produce, so exercise the happy path only.
	base := New(MustSchema(VarDef{Name: "x", Type: expr.Int}))
	if _, err := Collect(NewTraceSource(base)); err != nil {
		t.Fatalf("Collect over TraceSource: %v", err)
	}
}

// TestFtraceSourceMatchesBatch pins the streaming ftrace decoder to the
// batch one: collecting NewFtraceSource yields exactly
// FtraceToTrace(ParseFtrace(log)), with and without a task filter and
// a rename hook, over a multi-task log with comments, blank lines and
// lines with and without the flags column.
func TestFtraceSourceMatchesBatch(t *testing.T) {
	var b strings.Builder
	b.WriteString("# tracer: nop\n#\n")
	tasks := []string{"pi_stress-2314", "<idle>-0", "rcu_preempt-9"}
	names := []string{"sched_switch", "sched_waking", "sched_wakeup", "irq_handler_entry"}
	for i := 0; i < 200; i++ {
		task, name := tasks[i*7%len(tasks)], names[i*5%len(names)]
		if i%3 == 0 {
			fmt.Fprintf(&b, "%s  [%03d]  %d.%06d: %s: seq=%d\n", task, i%4, 100+i/10, i*37%1000000, name, i)
		} else {
			fmt.Fprintf(&b, "%s  [%03d] d..3  %d.%06d: %s: seq=%d\n", task, i%4, 100+i/10, i*37%1000000, name, i)
		}
		if i%50 == 49 {
			b.WriteString("\n# marker\n")
		}
	}
	log := b.String()
	rename := func(ev FtraceEvent) string {
		if ev.Name == "irq_handler_entry" {
			return ""
		}
		return ev.Task + ":" + ev.Name
	}
	evs, err := ParseFtrace(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range append([]string{""}, tasks...) {
		for _, rn := range []struct {
			name string
			fn   func(FtraceEvent) string
		}{{"plain", nil}, {"rename", rename}} {
			label := task
			if label == "" {
				label = "all"
			}
			t.Run(label+"/"+rn.name, func(t *testing.T) {
				want := FtraceToTrace(evs, task, rn.fn)
				got, err := Collect(NewFtraceSource(strings.NewReader(log), task, rn.fn))
				if err != nil {
					t.Fatal(err)
				}
				if !got.Schema().Equal(want.Schema()) {
					t.Fatalf("schema %v, want %v", got.Schema(), want.Schema())
				}
				ge, _ := got.Events()
				we, _ := want.Events()
				if len(we) == 0 {
					t.Fatal("batch decode selected no events")
				}
				if strings.Join(ge, "\n") != strings.Join(we, "\n") {
					t.Errorf("source decoded %d events %v\nbatch %d events %v", len(ge), ge, len(we), we)
				}
			})
		}
	}
}
