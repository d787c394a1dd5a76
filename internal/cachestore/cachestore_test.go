package cachestore_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cachestore"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/obs"
	"mira/internal/parser"
	"mira/internal/sema"
)

const kernelSrc = `
double kernel(double *x, int n) {
	double s; int i;
	s = 0.0;
	for (i = 0; i < n; i++) {
		s = s + x[i] * 2.0;
	}
	return s;
}`

func openStore(t *testing.T) *cachestore.Disk {
	t.Helper()
	d, err := cachestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// entryPath is where d keeps the entry for key.
func entryPath(d *cachestore.Disk, key string) string {
	return filepath.Join(d.Dir(), "funcs", key[:2], key+".mira")
}

// TestDiskRoundTrip stores a real compiled unit, reloads it through a
// second handle on the same directory, and checks the bytes and the
// on-disk frame layout.
func TestDiskRoundTrip(t *testing.T) {
	d := openStore(t)
	res, err := core.AnalyzeIncrementalContext(context.Background(), "k.c", kernelSrc, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	art := res.Artifacts["kernel"]
	ent := &engine.FuncEntry{Name: art.Name, Unit: core.EncodeUnit(art.Unit)}
	if _, ok := d.LoadFunc(art.Key); ok {
		t.Fatal("hit on empty store")
	}
	if err := d.StoreFunc(art.Key, ent); err != nil {
		t.Fatal(err)
	}
	d2, err := cachestore.Open(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.LoadFunc(art.Key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Name != ent.Name || !bytes.Equal(got.Unit, ent.Unit) {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if _, err := core.DecodeUnit(got.Unit); err != nil {
		t.Errorf("reloaded unit does not decode: %v", err)
	}
	raw, err := os.ReadFile(entryPath(d, art.Key))
	if err != nil {
		t.Fatal(err)
	}
	magic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion)
	if !bytes.Equal(raw, cachestore.EncodeFrame(magic, []byte(art.Key), []byte(ent.Name), ent.Unit)) {
		t.Error("on-disk entry is not the key, name, unit frame")
	}
}

func TestDiskRejectsBadKeys(t *testing.T) {
	d := openStore(t)
	for _, key := range []string{"", "ab", "../../etc/passwd", "ABCDEF012345", "zz" + strings.Repeat("a", 8)} {
		if err := d.StoreFunc(key, &engine.FuncEntry{}); err == nil {
			t.Errorf("StoreFunc accepted key %q", key)
		}
		if _, ok := d.LoadFunc(key); ok {
			t.Errorf("LoadFunc accepted key %q", key)
		}
	}
	if d.FuncLen() != 0 {
		t.Errorf("FuncLen = %d after refused writes, want 0", d.FuncLen())
	}
}

// TestDiskCorruptEntryIsMiss damages on-disk entries every way the
// format can break and checks each reads back as a miss, not an error
// and never a bogus entry.
func TestDiskCorruptEntryIsMiss(t *testing.T) {
	key := strings.Repeat("cd", 32)
	ent := &engine.FuncEntry{Name: "kernel", Unit: []byte("unit bytes")}
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated to half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-5] }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }},
		{"flipped checksum bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"garbage", func(b []byte) []byte { return []byte("complete nonsense") }},
		{"extra trailing bytes", func(b []byte) []byte { return append(b, 9, 9, 9) }},
	}
	for _, c := range corruptions {
		d := openStore(t)
		if err := d.StoreFunc(key, ent); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(entryPath(d, key))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(entryPath(d, key), c.mut(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := d.LoadFunc(key); ok {
			t.Errorf("%s: corrupt entry served: %+v", c.name, got)
		}
	}
}

// TestDiskEntryUnderWrongKey guards the content-addressing: an entry
// copied to a different key's path must not be served.
func TestDiskEntryUnderWrongKey(t *testing.T) {
	d := openStore(t)
	key1 := strings.Repeat("11", 32)
	key2 := strings.Repeat("22", 32)
	if err := d.StoreFunc(key1, &engine.FuncEntry{Name: "a", Unit: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	src := entryPath(d, key1)
	dst := entryPath(d, key2)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.LoadFunc(key2); ok {
		t.Error("entry served under a key it was not stored for")
	}
}

// TestEngineDiskRoundTrip runs the full warm-restart flow through real
// engines sharing one on-disk store; the -race gate covers concurrent
// load/store against the same directory.
func TestEngineDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	env := expr.EnvFromInts(map[string]int64{"n": 100})

	d1, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := engine.New(engine.Options{Store: d1, Workers: 4})
	m1, err := analyzeAndEval(cold, env)
	if err != nil {
		t.Fatal(err)
	}
	if d1.FuncLen() == 0 {
		t.Fatal("nothing persisted")
	}

	// "Restart": a new store handle and a new engine over the same dir.
	d2, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.New(engine.Options{Store: d2, Workers: 4})
	m2, err := analyzeAndEval(warm, env)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("warm restart diverged: %+v vs %+v", m2, m1)
	}
	var sb strings.Builder
	if err := warm.Obs().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if exp.Value("mira_store_hits_total") == 0 {
		t.Error("warm engine served no store hits")
	}
	if exp.Value("mira_incremental_misses_total") != 0 {
		t.Error("warm engine recompiled despite the disk cache")
	}
}

func analyzeAndEval(e *engine.Engine, env expr.Env) (any, error) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := e.AnalyzeCtx(context.Background(), "kernel.c", kernelSrc)
			if err == nil {
				_ = a.RunOne(context.Background(), engine.Query{Fn: "kernel", Env: env})
			}
		}()
	}
	wg.Wait()
	a, err := e.AnalyzeCtx(context.Background(), "kernel.c", kernelSrc)
	if err != nil {
		return nil, err
	}
	r := a.RunOne(context.Background(), engine.Query{Fn: "kernel", Env: env})
	if r.Err != nil {
		return nil, r.Err
	}
	return *r.Metrics, nil
}

// BenchmarkColdVsWarmRestart measures what the persistent cache buys a
// restarting process: Cold compiles benchprogs from scratch each
// iteration (fresh engine, empty store); WarmRestart gives each fresh
// engine a directory populated by a previous "process" so every
// function restores from its stored unit and only the models
// regenerate.
func BenchmarkColdVsWarmRestart(b *testing.B) {
	jobs := []engine.Job{
		{Name: "stream.c", Source: benchprogs.Stream},
		{Name: "dgemm.c", Source: benchprogs.Dgemm},
		{Name: "minife.c", Source: benchprogs.MiniFE},
		{Name: "ablation.c", Source: benchprogs.Ablation},
	}
	run := func(b *testing.B, store func() engine.CacheStore) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.Options{Store: store()})
			if err := engine.Errors(e.AnalyzeAll(context.Background(), jobs)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Cold", func(b *testing.B) {
		run(b, func() engine.CacheStore {
			d, err := cachestore.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
	b.Run("WarmRestart", func(b *testing.B) {
		dir := b.TempDir()
		seedStore, err := cachestore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		seed := engine.New(engine.Options{Store: seedStore})
		if err := engine.Errors(seed.AnalyzeAll(context.Background(), jobs)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, func() engine.CacheStore {
			d, err := cachestore.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
}

// TestDiskFuncRoundTrip covers arbitrary unit bytes and the entry count.
func TestDiskFuncRoundTrip(t *testing.T) {
	d := openStore(t)
	key := strings.Repeat("fe", 32)
	if _, ok := d.LoadFunc(key); ok {
		t.Fatal("hit on empty store")
	}
	ent := &engine.FuncEntry{Name: "minife", Unit: []byte{7, 0, 255, 1}}
	if err := d.StoreFunc(key, ent); err != nil {
		t.Fatal(err)
	}
	got, ok := d.LoadFunc(key)
	if !ok {
		t.Fatal("stored function entry missed")
	}
	if got.Name != ent.Name || string(got.Unit) != string(ent.Unit) {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if d.FuncLen() != 1 {
		t.Errorf("FuncLen = %d, want 1", d.FuncLen())
	}
}

// funcKeysFor computes the same function-content keys a default engine
// uses, so tests can locate a specific function's on-disk entry.
func funcKeysFor(t *testing.T, name, src string) map[string]string {
	t.Helper()
	file, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	return core.FuncKeys(prog, core.Options{})
}

// TestFuncEntryCorruptionIsolated is the function-granularity corruption
// contract end to end: with one per-function entry damaged on disk, a
// restarted engine recompiles exactly that function (plus whatever the
// edit itself invalidated), serves every sibling from its own entry, and
// produces results identical to a cold analysis. No panic, no error, no
// cross-entry poisoning.
func TestFuncEntryCorruptionIsolated(t *testing.T) {
	dir := t.TempDir()
	d1, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine.New(engine.Options{Store: d1, Workers: 1})
	if _, err := e1.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE); err != nil {
		t.Fatal(err)
	}
	if d1.FuncLen() == 0 {
		t.Fatal("no per-function entries persisted")
	}

	// Corrupt exactly waxpby's entry: a leaf of the call graph, so an
	// edit elsewhere cannot legitimately invalidate it.
	keys := funcKeysFor(t, "minife.c", benchprogs.MiniFE)
	waxpbyKey, ok := keys["waxpby"]
	if !ok {
		t.Fatalf("no key for waxpby in %v", keys)
	}
	entryPath := filepath.Join(dir, "funcs", waxpbyKey[:2], waxpbyKey+".mira")
	raw, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatalf("waxpby entry not on disk: %v", err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(entryPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Edit inside minife only (a column shift on one of its lines), so
	// the restarted engine must recompile minife itself as well.
	mutated := strings.Replace(benchprogs.MiniFE, "return cg_solve", " return cg_solve", 1)
	if mutated == benchprogs.MiniFE {
		t.Fatal("mutation did not change the source")
	}

	d2, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Options{Store: d2, Workers: 1})
	a, err := e2.AnalyzeCtx(context.Background(), "minife.c", mutated)
	if err != nil {
		t.Fatalf("analyze over corrupted store: %v", err)
	}
	delta := a.Delta()
	if delta == nil {
		t.Fatal("no delta from incremental build")
	}
	compiled := append([]string{}, delta.Compiled...)
	sort.Strings(compiled)
	if want := []string{"minife", "waxpby"}; !reflect.DeepEqual(compiled, want) {
		t.Errorf("recompiled %v, want %v (edited fn + corrupted fn only)", compiled, want)
	}
	for _, q := range delta.Reused {
		if q == "waxpby" {
			t.Error("corrupt waxpby entry was served")
		}
	}

	cold, err := engine.New(engine.Options{Workers: 1}).AnalyzeCtx(context.Background(), "minife.c", mutated)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.PythonModel(), cold.PythonModel(); got != want {
		t.Error("corrupted-store analysis diverged from cold analysis")
	}
}

// TestVersionMismatchIsMiss pins the versioned-magic contract: the
// on-disk magic embeds engine.CacheFormatVersion, and a perfectly
// well-formed entry from another version — old or future, checksum and
// framing intact — reads back as a clean miss, never an error.
func TestVersionMismatchIsMiss(t *testing.T) {
	d := openStore(t)
	key := strings.Repeat("ab", 32)
	if err := d.StoreFunc(key, &engine.FuncEntry{Name: "f", Unit: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(entryPath(d, key))
	if err != nil {
		t.Fatal(err)
	}
	wantMagic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion)
	if !bytes.HasPrefix(raw, []byte(wantMagic)) {
		t.Fatalf("entry magic %q does not embed engine.CacheFormatVersion (want prefix %q)",
			raw[:len(wantMagic)], wantMagic)
	}

	oldMagic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion-1)
	futureMagic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion+1)
	for _, version := range []string{oldMagic, futureMagic} {
		fn := cachestore.EncodeFrame(version, []byte(key), []byte("f"), []byte{2})
		if err := os.WriteFile(entryPath(d, key), fn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.LoadFunc(key); ok {
			t.Errorf("%q entry served across a version bump", strings.TrimSpace(version))
		}
	}
}
