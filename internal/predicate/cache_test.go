package predicate

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/synth"
	"repro/internal/synthcache"
	"repro/internal/trace"
)

// turningVals is the 1..5..1..5 counter workload: four distinct window
// shapes (ascent, peak, descent, trough), plenty of repeats.
var turningVals = []int64{1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2, 1}

func cachedGenerator(t *testing.T, schema *trace.Schema, dir string, opts Options) *Generator {
	t.Helper()
	c, err := synthcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = c
	g, err := NewGenerator(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCacheDigestInternerOrderInvariant: the digest addresses window
// content, not interner ids. A generator that interned other
// observations first (different id assignment for the same values)
// must digest an identical window identically — this is what lets runs
// that ingested different traces share one cache directory.
func TestCacheDigestInternerOrderInvariant(t *testing.T) {
	tr := intTrace(t, turningVals...)
	g1 := cachedGenerator(t, tr.Schema(), t.TempDir(), Options{})

	g2 := cachedGenerator(t, tr.Schema(), t.TempDir(), Options{})
	// Skew g2's interner: intern the trace back to front, so every
	// observation gets a different dense id than in g1.
	for i := tr.Len() - 1; i >= 0; i-- {
		g2.obsIntern.Intern(tr.At(i))
	}
	if _, err := g1.Sequence(tr); err != nil {
		t.Fatal(err)
	}

	for i := 0; i+g1.Window() <= tr.Len(); i++ {
		win := tr.Slice(i, i+g1.Window())
		if d1, d2 := g1.cacheDigest(win), g2.cacheDigest(win); d1 != d2 {
			t.Fatalf("window %d: digest depends on interner state: %s vs %s", i, d1, d2)
		}
	}
}

// TestCacheDigestNoCollisions: distinct window contents and distinct
// synthesis parameters must address distinct entries — a collision
// would silently replay the wrong record.
func TestCacheDigestNoCollisions(t *testing.T) {
	tr := intTrace(t, turningVals...)
	g := cachedGenerator(t, tr.Schema(), t.TempDir(), Options{})

	seen := map[synthcache.Digest]string{}
	record := func(gen *Generator, win *trace.Trace, label string) {
		d := gen.cacheDigest(win)
		if prev, ok := seen[d]; ok {
			t.Fatalf("digest collision: %s and %s share %s", prev, label, d)
		}
		seen[d] = label
	}
	// Every distinct window content of several workloads.
	contents := map[string]bool{}
	for _, vals := range [][]int64{
		turningVals,
		{7, 7, 7, 7, 7},
		{0, 10, 0, 10, 0},
		{1, 2, 4, 8, 16, 32},
	} {
		wtr := intTrace(t, vals...)
		for i := 0; i+g.Window() <= wtr.Len(); i++ {
			win := wtr.Slice(i, i+g.Window())
			key := win.At(0)[0].String() + "," + win.At(1)[0].String() + "," + win.At(2)[0].String()
			if contents[key] {
				continue
			}
			contents[key] = true
			record(g, win, "window "+key)
		}
	}

	// The same window under different synthesis parameters: every
	// variation must move the digest.
	win := tr.Slice(0, 3)
	for label, opts := range map[string]Options{
		"maxsize": {Synth: synth.Options{MaxSize: 7}},
		"mul":     {Synth: synth.Options{EnableMul: true}},
		"arith":   {Synth: synth.Options{ExtraArithConsts: []int64{42}}},
		"cmp":     {Synth: synth.Options{ExtraCmpConsts: []int64{42}}},
	} {
		record(cachedGenerator(t, tr.Schema(), t.TempDir(), opts), win, "params "+label)
	}
	// A wider window over the same values, and a different schema.
	g4 := cachedGenerator(t, tr.Schema(), t.TempDir(), Options{Window: 4})
	record(g4, tr.Slice(0, 4), "window-width 4")
	other := trace.MustSchema(trace.VarDef{Name: "y", Type: expr.Int})
	ytr := trace.New(other)
	for _, v := range turningVals[:3] {
		ytr.MustAppend(trace.Observation{expr.IntVal(v)})
	}
	record(cachedGenerator(t, other, t.TempDir(), Options{}), ytr.Slice(0, 3), "schema y")
}

// TestCacheWarmIdenticalSequenceAndStats: with the cache cold or warm,
// the generator must produce the same predicate keys and evolve the
// same Stats as an uncached generator — the generator-level form of
// the model byte-identity contract. The warm generator must
// additionally answer every unique window from the cache.
func TestCacheWarmIdenticalSequenceAndStats(t *testing.T) {
	tr := intTrace(t, turningVals...)
	base, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPs, err := base.Sequence(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := base.Stats()

	dir := t.TempDir()
	for _, leg := range []string{"cold", "warm"} {
		g := cachedGenerator(t, tr.Schema(), dir, Options{})
		ps, err := g.Sequence(tr)
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		if len(ps) != len(wantPs) {
			t.Fatalf("%s: %d predicates, want %d", leg, len(ps), len(wantPs))
		}
		for i := range ps {
			if ps[i].Key != wantPs[i].Key {
				t.Errorf("%s: p%d = %q, want %q", leg, i, ps[i].Key, wantPs[i].Key)
			}
		}
		if got := g.Stats(); got != wantStats {
			t.Errorf("%s: stats %+v, want %+v", leg, got, wantStats)
		}
		st := g.cache.Stats()
		if leg == "warm" && (st.Misses != 0 || st.Hits == 0) {
			t.Errorf("warm: cache stats %+v, want all hits", st)
		}
		if st.Corrupt != 0 {
			t.Errorf("%s: cache reported %d corrupt entries", leg, st.Corrupt)
		}
	}
}

// TestDisabledCacheMemoHitNoAllocs pins the hot path: with no cache
// attached, answering a repeated window from the memo must not
// allocate at all — attaching the cache feature may not tax the
// default configuration.
func TestDisabledCacheMemoHitNoAllocs(t *testing.T) {
	tr := intTrace(t, 1, 2, 3)
	g, err := NewGenerator(tr.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]trace.ObsID, g.Window())
	for i := range ids {
		ids[i] = g.obsIntern.Intern(tr.At(i))
	}
	if _, err := g.resolve(ids); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p, err := g.resolve(ids)
		if err != nil || p == nil {
			t.Fatal("memo hit failed")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-cache memo hit allocates %.1f objects per call, want 0", allocs)
	}
}
