package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON keeps the harness's metric
// catalogue and workload list equal to what BENCHMARK.json declares,
// in both directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, have []metricDef, want []declared, bounded bool) {
		if len(have) != len(want) {
			t.Errorf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(have), len(want))
		}
		decl := make(map[string]declared)
		for _, d := range want {
			if !nameRe.MatchString(d.Name) {
				t.Errorf("%s: name %q is not [A-Za-z0-9_.-]+", kind, d.Name)
			}
			if _, dup := decl[d.Name]; dup {
				t.Errorf("%s: %q declared twice", kind, d.Name)
			}
			decl[d.Name] = d
		}
		for _, m := range have {
			d, ok := decl[m.name]
			if !ok {
				t.Errorf("%s: %q is in the catalogue but not in BENCHMARK.json", kind, m.name)
				continue
			}
			delete(decl, m.name)
			if d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %q: catalogue (%s, %s), BENCHMARK.json (%s, %s)", kind, m.name, m.unit, m.better, d.Unit, d.Better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != m.bound):
				t.Errorf("%s %q: catalogue bound %v, BENCHMARK.json %v", kind, m.name, m.bound, d.Bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, m.name)
			}
		}
		for name := range decl {
			t.Errorf("%s: %q is in BENCHMARK.json but not in the catalogue", kind, name)
		}
	}
	check("end_to_end", endToEndMetrics, bj.EndToEnd, true)
	check("per_layer", perLayerMetrics, bj.PerLayer, false)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: harness (%q, %q), BENCHMARK.json (%q, %q)", i, w.name, w.why, got.Name, got.Why)
		}
	}
}

// TestSameSeedSameInputs: inputs derive from the seed and from nothing
// else.
func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := env{seed: 7}, env{seed: 7}, env{seed: 8}
	if !bytes.Equal(a.randomBytes(1, 2, 4096), b.randomBytes(1, 2, 4096)) {
		t.Error("the same seed produced different payloads")
	}
	if bytes.Equal(a.randomBytes(1, 2, 4096), other.randomBytes(1, 2, 4096)) {
		t.Error("different seeds produced the same payload")
	}
	if bytes.Equal(a.randomBytes(0, 2, 4096), a.randomBytes(1, 2, 4096)) {
		t.Error("two clients got the same payload")
	}
	pa, pb := a.rng(0, 3).Perm(stripeSlots), b.rng(0, 3).Perm(stripeSlots)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("the same seed produced different offset orders")
		}
	}
}

// TestCompareGate: a change beyond its bound, or a rise in failures,
// fails the comparison; one within bounds passes.
func TestCompareGate(t *testing.T) {
	mk := func(scale float64, failed int) map[string]*result {
		out := make(map[string]*result)
		for _, w := range workloads {
			r := newResult(w.name, 1)
			r.Attempted, r.Failed = 1000, failed
			for _, m := range endToEndMetrics {
				r.Metrics[m.name] = metric{100, m.unit}
			}
			r.Metrics["phase_a_ops_per_s"] = metric{100 * scale, "1/s"}
			out[w.name] = r
		}
		return out
	}
	var bound float64
	for _, m := range endToEndMetrics {
		if m.name == "phase_a_ops_per_s" {
			bound = m.bound
		}
	}
	base := mk(1, 0)
	if !compareResults(io.Discard, base, mk(1-bound/2, 0)) {
		t.Error("a throughput loss of half the bound failed the gate")
	}
	if compareResults(io.Discard, base, mk(1-2*bound, 0)) {
		t.Error("a throughput loss of twice the bound passed the gate")
	}
	if !compareResults(io.Discard, base, mk(1.5, 0)) {
		t.Error("a gain failed the gate")
	}
	if compareResults(io.Discard, base, mk(1, 1)) {
		t.Error("a rise in failed operations passed the gate")
	}
}

func smokeOptions(t *testing.T) runOptions {
	t.Helper()
	if testing.Short() {
		t.Skip("starts daemon processes")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bins, err := buildDaemons(root)
	if err != nil {
		t.Fatal(err)
	}
	return runOptions{
		seed: 42, window: shortWindow, setups: 1, untraced: true, traced: true,
		bins: bins, tmp: t.TempDir(),
	}
}

// countMetrics are layer metrics that count work, not time: they must
// repeat exactly from run to run.
var countMetrics = []string{"redist.plan_segments", "redist.plan_coalesced_segments", "clusterfile.store_calls_per_mib"}

// TestSmoke runs every workload twice with 1 s windows against real
// daemons and checks that the run is correct, that it emits exactly
// the declared metrics, and that counts repeat.
func TestSmoke(t *testing.T) {
	opts := smokeOptions(t)
	bj := loadBenchmarkJSON(t)
	want := make(map[string]string)
	for _, d := range append(bj.EndToEnd, bj.PerLayer...) {
		want[d.Name] = d.Unit
	}
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			var passes [2]*result
			for i := range passes {
				res, err := runWorkload(context.Background(), def, opts)
				if err != nil {
					t.Fatal(err)
				}
				passes[i] = res
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("pass %d: correct=%v attempted=%d failed=%d errors=%v",
						i, res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				for name, m := range res.Metrics {
					if unit, ok := want[name]; !ok {
						t.Errorf("pass %d emitted %q, which BENCHMARK.json does not declare", i, name)
					} else if unit != m.Unit {
						t.Errorf("pass %d emitted %q in %q, declared %q", i, name, m.Unit, unit)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("pass %d did not emit the declared metric %q", i, name)
					}
				}
				for _, m := range endToEndMetrics {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("pass %d: end-to-end metric %q is %v, want > 0", i, m.name, res.Metrics[m.name].Value)
					}
				}
				var line bytes.Buffer
				res.print(&line)
				last := bytes.Split(bytes.TrimSpace(line.Bytes()), []byte("\n"))
				var final map[string]json.RawMessage
				if err := json.Unmarshal(last[len(last)-1], &final); err != nil || len(final) != 4 {
					t.Errorf("pass %d: last printed line is not the 4-key result object: %v", i, err)
				}
			}
			for _, name := range countMetrics {
				if a, b := passes[0].Metrics[name].Value, passes[1].Metrics[name].Value; a != b || a == 0 {
					t.Errorf("count metric %q did not repeat: %v then %v", name, a, b)
				}
			}
		})
	}
}

// TestCorruptedReadBackFails flips one byte of a daemon's on-disk
// subfile after a checkpoint: the restart must report a mismatch and
// the final on-disk check must fail.
func TestCorruptedReadBackFails(t *testing.T) {
	opts := smokeOptions(t)
	ctx := context.Background()
	topo, err := startTopology(ctx, opts.bins, opts.tmp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.stop()
	e := env{ctx: topo.ctx, topo: topo, seed: opts.seed, tag: "x"}
	sess, err := openCkpt(e)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close(ctx)
	ph := sess.phases()
	if _, err := ph[0].op(ctx, 0, 0); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := ph[1].op(ctx, 0, 0); err != nil {
		t.Fatalf("restart of an intact checkpoint: %v", err)
	}

	app := sess.(*ckptSession).apps[0]
	path := filepath.Join(topo.dataDir(0), app.name+".subfile00")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var one [1]byte
	if _, err := f.ReadAt(one[:], 12345); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xff
	if _, err := f.WriteAt(one[:], 12345); err != nil {
		t.Fatal(err)
	}

	if _, err := ph[1].op(ctx, 0, 1); !errors.Is(err, errMismatch) {
		t.Errorf("restart over a corrupted subfile returned %v, want a mismatch", err)
	}
	if err := sess.verify(ctx); err == nil {
		t.Error("the on-disk check passed over a corrupted subfile")
	}
}
