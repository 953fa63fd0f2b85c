package core

import (
	"bytes"
	"testing"

	"repro/internal/expr"
	"repro/internal/trace"
)

// FuzzReadModel feeds arbitrary bytes to the model reader and checks a
// short trace against whatever loads. Malformed input must come back
// as an error, never a panic or an allocation sized by a header count;
// a model that loads must check a trace of its schema without
// panicking. The seed corpus holds the models learned from
// examples/traces.
func FuzzReadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = m.Check(shortTrace(m.pipeline.schema, 6))
	})
}

// shortTrace returns n observations of the schema with a little
// variation in every variable.
func shortTrace(schema *trace.Schema, n int) *trace.Trace {
	tr := trace.New(schema)
	for i := 0; i < n; i++ {
		obs := make(trace.Observation, schema.Len())
		for j := range obs {
			switch schema.Var(j).Type {
			case expr.Int:
				obs[j] = expr.IntVal(int64(i % 3))
			case expr.Bool:
				obs[j] = expr.BoolVal(i%2 == 0)
			default:
				obs[j] = expr.SymVal([]string{"a", "b"}[i%2])
			}
		}
		tr.MustAppend(obs)
	}
	return tr
}
