package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// seal frames payload under a header whose length and hash match it.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s v%d sha256=%s bytes=%d\n", headerMagic, Version, hex.EncodeToString(sum[:]), len(payload))
	return append([]byte(header), payload...)
}

// FuzzDecode feeds arbitrary bytes to Decode, both as a whole file and
// as a payload sealed under a valid header (random bytes almost never
// pass the hash check, so the second form is what reaches the JSON and
// its invariants). Decode must return an error or a state, never
// panic, and a decoded state must survive an Encode/Decode round trip
// unchanged. The seed is the final checkpoint of a t2m -checkpoint run
// on the counter trace, learn state included.
func FuzzDecode(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "counter-model.t2mc"))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := Decode(seed); err != nil {
		f.Fatalf("seed checkpoint does not decode: %v", err)
	}
	f.Add(seed)
	if nl := bytes.IndexByte(seed, '\n'); nl >= 0 {
		f.Add(seed[nl+1:])
	}
	f.Add([]byte(`{"version":1,"phase":"ingest","offset":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, seal(data)} {
			st, _, err := Decode(file)
			if err != nil {
				continue
			}
			enc, _, err := Encode(st)
			if err != nil {
				t.Fatalf("decoded state does not encode: %v", err)
			}
			st2, _, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
			enc2, _, err := Encode(st2)
			if err != nil {
				t.Fatalf("round-tripped state does not encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("state changed in an Encode/Decode round trip:\n%s\n%s", enc, enc2)
			}
		}
	})
}
