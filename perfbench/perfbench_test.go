package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"abndp"
)

func TestSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		a, err := Sequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Sequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two sequences differ", seed)
		}
	}
	a, _ := Sequence(1)
	b, _ := Sequence(2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 give the same sequence")
	}
}

// The stream is the example campaign's grid: Sm, and O at four alphas, at
// scales 7 and 9 and degree 6, over a block of eight consecutive seeds
// picked by the benchmark seed; every run is requested campaignPasses times.
func TestSequenceReplaysTheCampaignGrid(t *testing.T) {
	const seed = 5
	seq, err := Sequence(seed)
	if err != nil {
		t.Fatal(err)
	}
	count := map[Key]int{}
	for _, k := range seq {
		count[k]++
	}
	want := map[Key]bool{}
	for s := int64(42 + 8*seed); s < 42+8*seed+8; s++ {
		for _, scale := range []int{7, 9} {
			p := abndp.Params{Scale: scale, Degree: 6, Seed: s}
			want[Key{"pr", abndp.DesignSm, abndp.DefaultConfig().HybridAlpha, p}] = true
			for _, a := range []float64{0.25, 0.5, 1, 2} {
				want[Key{"pr", abndp.DesignO, a, p}] = true
			}
		}
	}
	if len(count) != len(want) {
		t.Fatalf("sequence has %d distinct keys, want %d", len(count), len(want))
	}
	for k, n := range count {
		if !want[k] {
			t.Fatalf("unexpected key %s", k)
		}
		if n != campaignPasses {
			t.Fatalf("key %s requested %d times, want %d", k, n, campaignPasses)
		}
	}
	if got, want := repeatShare(seq), 1-1.0/campaignPasses; math.Abs(got-want) > 1e-12 {
		t.Fatalf("repeat share %v, want %v", got, want)
	}
}

// Only a non-default alpha travels in the request, as the service reads an
// absent alpha as the default.
func TestKeyRequest(t *testing.T) {
	p := abndp.Params{Scale: 7, Degree: 6, Seed: 42}
	if req := (Key{"pr", abndp.DesignSm, abndp.DefaultConfig().HybridAlpha, p}).Request(); req.Config != nil {
		t.Fatalf("Sm request carries a config: %+v", *req.Config)
	}
	req := (Key{"pr", abndp.DesignO, 0.5, p}).Request()
	if req.Config == nil || req.Config.Alpha == nil || *req.Config.Alpha != 0.5 {
		t.Fatalf("O request does not carry alpha 0.5: %+v", req)
	}
	if req.Design != "O" || req.Params.Scale != 7 || req.Params.Degree != 6 || req.Params.Seed != 42 {
		t.Fatalf("request %+v does not match the key", req)
	}
}

func TestRepeatShare(t *testing.T) {
	a, b := Key{App: "pr"}, Key{App: "bfs"}
	if got := repeatShare([]Key{a, b, a, a}); got != 0.5 {
		t.Fatalf("repeatShare = %v, want 0.5", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of no values is not 0")
	}
}

// BENCHMARK.json at the repository root declares the metrics this program
// prints; the two lists must agree name for name and unit for unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metric) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

//go:noinline
func spinA(d time.Duration) (n int) {
	for t := time.Now(); time.Since(t) < d; n++ {
	}
	return n
}

//go:noinline
func spinB(d time.Duration) (n int) {
	for t := time.Now(); time.Since(t) < d; n++ {
	}
	return n
}

// cpuLayers attributes a real CPU profile's samples, through go tool pprof,
// to the layers whose functions are on their stacks, counting a sample
// once per layer.
func TestCPULayersAttributesProfileSamples(t *testing.T) {
	name := func(f any) string { return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name() }
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	prof, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		t.Fatal(err)
	}
	spinA(300 * time.Millisecond)
	spinB(200 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := cpuLayers(path, map[string][]string{
		"a":    {name(spinA)},
		"b":    {name(spinB)},
		"both": {name(spinA), name(spinB)},
		"none": {"no.such.Function"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] <= 0 || got["b"] <= 0 {
		t.Fatalf("no samples attributed: %v", got)
	}
	if math.Abs(got["both"]-(got["a"]+got["b"])) > 1e-9 || got["cpu.total_s"] < got["both"] || got["none"] != 0 {
		t.Fatalf("inconsistent attribution: %v", got)
	}
}

func TestGoldenCoversEveryInputSeed(t *testing.T) {
	for seed := int64(0); seed < inputSeeds; seed++ {
		ref, err := reference(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range matrixRuns(seed) {
			if len(ref[r.name()]) != 16 {
				t.Fatalf("seed %d: no reference for %s", seed, r.name())
			}
		}
	}
}
