package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"abndp"
	"abndp/client"
	"abndp/internal/bench"
	"abndp/internal/hypo"
	"abndp/internal/ndp"
	"abndp/internal/serve"
)

// The serve-campaign request stream is the repository's example hypothesis
// campaign as a remote client would submit it. campaign.json is a frozen
// copy of examples/hypotheses/h1_hybrid_alpha.json, so the benchmark's
// inputs do not change when the example does. internal/hypo expands it at
// -quick sizes (abndphypo -quick) into its runs: designs Sm and O, O's
// HybridAlpha grid, two load levels and eight seeds, 80 distinct runs.
//
// The stream submits those runs campaignPasses times: the campaign, then
// the two determinism checks docs/HYPOTHESES.md names, an identical rerun
// and a rerun with the seed list permuted (which expands to the same runs).
// So two requests in three repeat an earlier key. Campaign.Run dispatches
// every run at once behind a worker semaphore, so the order runs reach the
// service is arbitrary; the stream fixes one order per pass with a seeded
// shuffle.

//go:embed campaign.json
var campaignJSON []byte

const campaignPasses = 3

// Key is one distinct simulation request of the campaign.
type Key struct {
	App    string
	Design abndp.Design
	Alpha  float64 // Config.HybridAlpha; sent only when it is not the default
	Params abndp.Params
}

func (k Key) String() string {
	return fmt.Sprintf("%s|%s|alpha=%g|scale=%d|degree=%d|iters=%d|seed=%d",
		k.App, k.Design, k.Alpha, k.Params.Scale, k.Params.Degree, k.Params.Iters, k.Params.Seed)
}

// Request is the submission body for the key.
func (k Key) Request() client.RunRequest {
	req := client.RunRequest{
		App:    k.App,
		Design: k.Design.String(),
		Params: &serve.ParamsSpec{Scale: k.Params.Scale, Degree: k.Params.Degree, Iters: k.Params.Iters, Seed: k.Params.Seed},
	}
	if k.Alpha != abndp.DefaultConfig().HybridAlpha {
		a := k.Alpha
		req.Config = &serve.ConfigSpec{Alpha: &a}
	}
	return req
}

// Reference runs the key directly on the golden engine and returns its
// result hash: the same spec the service builds from Request.
func (k Key) Reference() (string, error) {
	cfg := abndp.DefaultConfig()
	cfg.HybridAlpha = k.Alpha
	res, err := abndp.Run(k.App, k.Design, cfg, k.Params)
	if err != nil {
		return "", err
	}
	return hashOf(res), nil
}

// recorder is a hypo executor that records each run instead of simulating
// it; its DefaultParams are the quick-mode bench runner's.
type recorder struct {
	*bench.Runner
	mu   sync.Mutex
	runs []bench.Spec
}

func (r *recorder) RunOne(_ context.Context, s bench.Spec, _ bool) (*ndp.Result, error) {
	r.mu.Lock()
	r.runs = append(r.runs, s)
	r.mu.Unlock()
	return &ndp.Result{}, nil
}

// Campaign returns the campaign's distinct runs for the seed, sorted. The
// seed shifts the campaign's seed list by a multiple of its length, which
// picks new inputs and keeps the grid.
func Campaign(seed int64) ([]Key, error) {
	spec, err := hypo.Load(bytes.NewReader(campaignJSON))
	if err != nil {
		return nil, err
	}
	shift := int64(len(spec.Seeds)) * mod(seed, 1<<20)
	for i := range spec.Seeds {
		spec.Seeds[i] += shift
	}
	rec := &recorder{Runner: bench.NewRunner(io.Discard)}
	rec.SetQuick(true)
	if _, err := spec.Run(context.Background(), rec, false); err != nil {
		return nil, err
	}

	keys := make([]Key, 0, len(rec.runs))
	for _, s := range rec.runs {
		// The service API carries HybridAlpha but not Config.Seed (the
		// work-stealing RNG seed), so a served run keeps the default.
		want := abndp.DefaultConfig()
		want.HybridAlpha, want.Seed = s.Config.HybridAlpha, s.Config.Seed
		if want.CanonicalKey() != s.Config.CanonicalKey() {
			return nil, fmt.Errorf("campaign run %s|%s overrides a configuration field the service API does not carry", s.App, s.Design)
		}
		keys = append(keys, Key{s.App, s.Design, s.Config.HybridAlpha, s.Params})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys, nil
}

// Sequence is the request stream of one sample: campaignPasses passes
// over the campaign's runs, each in its own seeded order.
func Sequence(seed int64) ([]Key, error) {
	keys, err := Campaign(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]Key, 0, campaignPasses*len(keys))
	for pass := 0; pass < campaignPasses; pass++ {
		for _, i := range rng.Perm(len(keys)) {
			seq = append(seq, keys[i])
		}
	}
	return seq, nil
}

// repeatShare is the share of requests whose key appeared earlier in seq.
func repeatShare(seq []Key) float64 {
	seen := map[Key]bool{}
	repeats := 0
	for _, k := range seq {
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return float64(repeats) / float64(len(seq))
}
