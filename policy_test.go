package abndp

import (
	"context"
	"io"
	"testing"

	"abndp/internal/bench"
)

// Config.SchedPolicy reaches placement end to end: through a bench.Runner,
// pr on design Sm under loadonly is cached under its own key and hashes
// differently from the design's own policy (lowestdist), and the same as
// a direct Run of the same config.
func TestSchedPolicyReachesPlacement(t *testing.T) {
	r := bench.NewRunner(io.Discard)
	r.SetQuick(true)
	plain := bench.Spec{App: "pr", Design: DesignSm, Config: DefaultConfig(), Params: r.DefaultParams("pr")}
	loadonly := plain
	loadonly.Config.SchedPolicy = "loadonly"
	if plain.Key() == loadonly.Key() {
		t.Fatalf("plain and loadonly runs share the cache key %q", plain.Key())
	}

	ctx := context.Background()
	a, err := r.RunOne(ctx, plain, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunOne(ctx, loadonly, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.RunsExecuted(); n != 2 {
		t.Fatalf("%d simulations executed, want 2 (one per cache key)", n)
	}
	if ResultHash(a) == ResultHash(b) {
		t.Fatalf("loadonly run hashes like the plain run (%016x): the policy did not reach placement", ResultHash(a))
	}

	direct, err := Run("pr", DesignSm, loadonly.Config, loadonly.Params)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ResultHash(b), ResultHash(direct); got != want {
		t.Fatalf("Runner loadonly hash %016x, direct Run %016x", got, want)
	}
}
