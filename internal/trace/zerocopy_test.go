package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cloneObs copies an observation out of the decoder's reused buffer.
func cloneObs(obs Observation) Observation {
	return append(Observation(nil), obs...)
}

// collectCSV decodes a CSV byte stream through the given reader
// wrapper and returns the observations.
func collectCSV(t *testing.T, data []byte, zeroCopy bool) []Observation {
	t.Helper()
	var src *CSVSource
	var err error
	if zeroCopy {
		src, err = NewCSVSource(NewBytes(data))
	} else {
		src, err = NewCSVSource(bytes.NewReader(data))
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []Observation
	for {
		obs, err := src.Next()
		if err != nil {
			break
		}
		out = append(out, cloneObs(obs))
	}
	return out
}

// TestCSVLongLines: lines far beyond any internal buffer size must
// decode — the old bufio.Scanner decoder capped line length; the liner
// grows without bound on both the reader and the zero-copy path.
func TestCSVLongLines(t *testing.T) {
	big := strings.Repeat("x", 300*1024) // 300 KiB, past the 64 KiB read buffer
	data := []byte("name:sym,count:int\n" +
		"small,1\n" +
		big + ",2\n" +
		"tail,3") // final line unterminated on purpose
	for _, zero := range []bool{false, true} {
		obs := collectCSV(t, data, zero)
		if len(obs) != 3 {
			t.Fatalf("zeroCopy=%v: decoded %d observations, want 3", zero, len(obs))
		}
		if got := obs[1][0].S; got != big {
			t.Errorf("zeroCopy=%v: long field came back %d bytes, want %d", zero, len(got), len(big))
		}
		if got := obs[2][0].S; got != "tail" {
			t.Errorf("zeroCopy=%v: final unterminated line decoded as %q", zero, got)
		}
	}
}

// TestOpenBytes: the mmap-or-read file source must serve the file's
// exact bytes, decode end-to-end, and tolerate double Close.
func TestOpenBytes(t *testing.T) {
	data := []byte("count:int\n0\n1\n2\n3\n")
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Data(), data) || b.Len() != len(data) {
		t.Fatalf("OpenBytes served %d bytes, want %d", b.Len(), len(data))
	}
	src, err := NewCSVSource(b)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("decoded %d observations, want 4", tr.Len())
	}
	if got := src.BytesRead(); got != int64(len(data)) {
		t.Errorf("BytesRead = %d, want %d", got, len(data))
	}
	// Collect closes the source, which closes b; closing again (and
	// directly) must stay a no-op.
	if err := b.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if b.Data() != nil {
		t.Error("Data non-nil after Close — borrowed slices would dangle silently")
	}
}

// TestCSVQuotedMatchesEncodingCSV cross-checks the hand-rolled quoted
// parser against encoding/csv on adversarial symbol values, on both
// decode paths. Expected values carry the decoder's documented
// TrimSpace semantics.
func TestCSVQuotedMatchesEncodingCSV(t *testing.T) {
	values := []string{
		"plain", "comma,inside", `say "hi"`, "multi\nline\nvalue",
		`""`, "trail ", " lead", "mix,\"of\nboth\"", "ünïcode",
	}
	r := rand.New(rand.NewSource(5))
	var table [][]string
	for i := 0; i < 200; i++ {
		table = append(table, []string{values[r.Intn(len(values))], values[r.Intn(len(values))]})
	}
	var buf bytes.Buffer
	buf.WriteString("a:sym,b:sym\n")
	cw := csv.NewWriter(&buf)
	if err := cw.WriteAll(table); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	data := buf.Bytes()

	// Reference: encoding/csv over the same body.
	cr := csv.NewReader(bytes.NewReader(data[strings.Index(string(data), "\n")+1:]))
	cr.FieldsPerRecord = 2
	want, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	for _, zero := range []bool{false, true} {
		obs := collectCSV(t, data, zero)
		if len(obs) != len(want) {
			t.Fatalf("zeroCopy=%v: decoded %d records, want %d", zero, len(obs), len(want))
		}
		for i, rec := range want {
			for j := range rec {
				if got, w := obs[i][j].S, strings.TrimSpace(rec[j]); got != w {
					t.Fatalf("zeroCopy=%v: record %d field %d: %q, want %q", zero, i, j, got, w)
				}
			}
		}
	}

	// Malformed quoting must error, not decode garbage.
	for _, bad := range []string{
		"a:sym\nval\"ue\n",     // bare quote in unquoted field
		"a:sym\n\"unclosed\n",  // missing closing quote
		"a:sym\n\"x\"tail,1\n", // extraneous quote
	} {
		src, err := NewCSVSource(NewBytes([]byte(bad)))
		if err != nil {
			continue // header rejection is fine too
		}
		if _, err := src.Next(); err == nil {
			t.Errorf("malformed %q decoded without error", bad)
		}
	}
}

// TestNextIDMatchesDecodeIntern: the raw-byte ID fast path must yield
// the identical ObsID stream (over fresh interners) as decoding plus
// interning, including when the two are interleaved mid-stream and
// when the interner changes identity.
func TestNextIDMatchesDecodeIntern(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("count:int,event:sym\n")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&buf, "%d,e%d\n", i%7, i%3)
	}
	data := buf.Bytes()

	ref := NewInterner()
	srcA, err := NewCSVSource(NewBytes(data))
	if err != nil {
		t.Fatal(err)
	}
	var wantIDs []ObsID
	for {
		obs, err := srcA.Next()
		if err != nil {
			break
		}
		wantIDs = append(wantIDs, ref.Intern(obs))
	}

	for _, mode := range []string{"all-id", "interleaved", "events-style-reset"} {
		in := NewInterner()
		srcB, err := NewCSVSource(NewBytes(data))
		if err != nil {
			t.Fatal(err)
		}
		var got []ObsID
		for i := 0; ; i++ {
			var id ObsID
			switch {
			case mode == "interleaved" && i%3 == 2:
				obs, err := srcB.Next()
				if err != nil {
					goto done
				}
				id = in.Intern(obs)
			case mode == "events-style-reset" && i == 2000:
				// Swap interners mid-stream: the cache must reset, not
				// serve ids minted against the old table. Re-interning in
				// id order preserves the numbering.
				fresh := NewInterner()
				for j := 0; j < in.Len(); j++ {
					fresh.Intern(in.Obs(ObsID(j)))
				}
				in = fresh
				fallthrough
			default:
				var err error
				id, err = srcB.NextID(in)
				if err != nil {
					goto done
				}
			}
			got = append(got, id)
		}
	done:
		if len(got) != len(wantIDs) {
			t.Fatalf("%s: %d ids, want %d", mode, len(got), len(wantIDs))
		}
		for i := range got {
			if got[i] != wantIDs[i] {
				t.Fatalf("%s: id %d = %d, want %d", mode, i, got[i], wantIDs[i])
			}
		}
	}
}
