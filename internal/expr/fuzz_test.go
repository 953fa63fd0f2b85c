package expr

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse, which must return an
// expression or an error, never panic or overflow its stack. An
// expression it returns must print to canonical text that parses back
// to the same text. The seeds are the alphabet lines of the models in
// the model reader's fuzz corpus, parsed under the union of their
// schemas, plus one input nested just past maxNesting.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "fuzz", "FuzzReadModel", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no model corpus: %v", err)
	}
	types := map[string]Type{}
	for _, path := range paths {
		for _, line := range strings.Split(corpusBytes(f, path), "\n") {
			if fields, ok := strings.CutPrefix(line, "schema "); ok {
				for _, field := range strings.Split(fields, ",") {
					parts := strings.Split(field, ":")
					for _, ty := range []Type{Int, Bool, Sym} {
						if ty.String() == parts[1] {
							types[parts[0]] = ty
						}
					}
				}
			}
			if tag, text, ok := strings.Cut(line, " "); ok && len(tag) > 1 && tag[0] == 'p' {
				if _, err := strconv.Atoi(tag[1:]); err == nil {
					f.Add(text)
				}
			}
		}
	}
	f.Add(strings.Repeat("(", maxNesting+1) + "count" + strings.Repeat(")", maxNesting+1))
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src, types)
		if err != nil {
			return
		}
		canon := e.String()
		e2, err := Parse(canon, types)
		if err != nil {
			t.Fatalf("canonical text %q of %q does not parse: %v", canon, src, err)
		}
		if again := e2.String(); again != canon {
			t.Fatalf("canonical text %q reprints as %q", canon, again)
		}
	})
}

// corpusBytes returns the []byte value of a one-value "go test fuzz v1"
// corpus file.
func corpusBytes(f *testing.F, path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return s
}
