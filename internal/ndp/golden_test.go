package ndp_test

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/fault"
	"abndp/internal/ndp"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_hashes.txt from the current engine")

// goldenFile pins the ResultHash of every run in the tier-1 matrix.
const goldenFile = "testdata/golden_hashes.txt"

// goldenPlans are the fault plans of the matrix: none, one unit killed
// early, and a stack's four units killed late with a retry budget.
var goldenPlans = []string{"", "kill:70@2500", "kill:32-35@25000;retry:4"}

// goldenMatrix runs pr, astar, knn and bfs at scale 8 under the six NDP
// designs, on the 4x4 and 8x8 meshes, under each plan, and returns one
// "app design mesh plan hash" line per run.
func goldenMatrix(t *testing.T) []string {
	t.Helper()
	designs := []config.Design{config.DesignB, config.DesignSm, config.DesignSl,
		config.DesignSh, config.DesignC, config.DesignO}
	var out []string
	for _, app := range []string{"pr", "astar", "knn", "bfs"} {
		for _, d := range designs {
			for _, mesh := range []int{4, 8} {
				for _, spec := range goldenPlans {
					cfg := config.Default()
					cfg.MeshX, cfg.MeshY = mesh, mesh
					plan, err := fault.Parse(spec)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = plan
					a, err := apps.New(app, apps.Params{Scale: 8, Seed: 42})
					if err != nil {
						t.Fatal(err)
					}
					res := ndp.NewSystem(cfg, d).Run(a)
					name := spec
					if name == "" {
						name = "-"
					}
					out = append(out, fmt.Sprintf("%s %v %d %s %016x", app, d, mesh, name, ndp.ResultHash(res)))
				}
			}
		}
	}
	return out
}

// Every engine change must keep results byte-identical: the 144 runs of
// the matrix must hash exactly as recorded in testdata. The file is
// rewritten only by `go test -run TestGoldenResultHashes -update`, which
// belongs in a change that alters the model on purpose.
func TestGoldenResultHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 144 simulations")
	}
	got := goldenMatrix(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matrix has %d runs, %s has %d", len(got), goldenFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
