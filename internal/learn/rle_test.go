package learn

import (
	"math/rand"
	"reflect"
	"testing"
)

// seqOf builds a Seq from an expanded word.
func seqOf(word []string) *Seq {
	s := NewSeq()
	for _, sym := range word {
		s.Append(sym, 1)
	}
	return s
}

func TestSeqAppendMerges(t *testing.T) {
	s := NewSeq()
	s.Append("a", 2)
	s.Append("a", 3)
	s.Append("b", 1)
	s.Append("b", 0) // no-op
	s.Append("a", 4)
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if s.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3 (adjacent equal runs must merge)", s.Runs())
	}
}

// expandWindows is the reference enumeration: every window of the
// expanded sequence in position order, with exact duplicates of the
// immediately preceding window removed (the visitor's contract).
func expandWindows(word []int32, w int) (pos []int, wins [][]int32) {
	for i := 0; i+w <= len(word); i++ {
		// Skip exactly the windows equal to their predecessor window.
		if i > 0 && reflect.DeepEqual(word[i:i+w], word[i-1:i-1+w]) {
			continue
		}
		pos = append(pos, i)
		wins = append(wins, append([]int32(nil), word[i:i+w]...))
	}
	return
}

func TestWindowsVisitorMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		word := make([]int32, n)
		// Small alphabet with occasional long runs to exercise the
		// constant-window skip.
		cur := int32(rng.Intn(3))
		for i := range word {
			if rng.Intn(3) == 0 {
				cur = int32(rng.Intn(3))
			}
			word[i] = cur
		}
		s := &rleSeq{}
		for _, x := range word {
			if k := len(s.ids); k > 0 && s.ids[k-1] == x {
				s.counts[k-1]++
			} else {
				s.ids = append(s.ids, x)
				s.counts = append(s.counts, 1)
			}
			s.total++
		}
		for w := 1; w <= 5; w++ {
			wantPos, wantWins := expandWindows(word, w)
			var gotPos []int
			var gotWins [][]int32
			s.windows(w, func(pos int, win []int32) {
				gotPos = append(gotPos, pos)
				gotWins = append(gotWins, append([]int32(nil), win...))
			})
			if !reflect.DeepEqual(gotPos, wantPos) || !reflect.DeepEqual(gotWins, wantWins) {
				t.Fatalf("trial %d, w=%d, word %v:\n got %v %v\nwant %v %v",
					trial, w, word, gotPos, gotWins, wantPos, wantWins)
			}
		}
	}
}

func TestRLEExpand(t *testing.T) {
	s := &rleSeq{ids: []int32{0, 1, 0}, counts: []int32{3, 2, 4}, total: 9}
	got := s.expand(2, 7)
	want := []int32{0, 1, 1, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expand(2,7) = %v, want %v", got, want)
	}
	if full := s.expand(0, 9); len(full) != 9 {
		t.Fatalf("expand(0,9) has %d symbols", len(full))
	}
}

func TestGenerateModelSeqsMatchesMulti(t *testing.T) {
	// The paper-style sender word: long repetition, several symbols.
	var word []string
	for i := 0; i < 12; i++ {
		word = append(word, "send", "ack", "send", "ack", "timeout")
	}
	opts := Options{Segmented: true}

	ref, err := GenerateModelMulti([][]string{word}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateModelSeqs([]*Seq{seqOf(word)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rs, gs := ref.Automaton.String(), got.Automaton.String(); rs != gs {
		t.Fatalf("automata diverge:\nmulti:\n%s\nseqs:\n%s", rs, gs)
	}
	if ref.Stats.Segments != got.Stats.Segments || ref.Stats.SolverCalls != got.Stats.SolverCalls {
		t.Fatalf("stats diverge: multi %+v, seqs %+v", ref.Stats, got.Stats)
	}
}

func TestGenerateModelSeqsEmpty(t *testing.T) {
	if _, err := GenerateModelSeqs(nil, Options{}); err == nil {
		t.Fatal("no error for zero sequences")
	}
	if _, err := GenerateModelSeqs([]*Seq{NewSeq()}, Options{}); err == nil {
		t.Fatal("no error for empty sequence")
	}
}
