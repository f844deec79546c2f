package abndp

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"abndp/internal/fleet"
)

// perfbenchDelta matches a fleet counter perfbench reads from the proxy's
// /metrics: delta("fleet_...").
var perfbenchDelta = regexp.MustCompile(`\bdelta\("(fleet_\w+)"\)`)

// staleFleetReads lists the fleet_* names perfbench reads that no
// Coordinator publishes, each with the reason. Dropping the read changes
// perfbench, so it waits for a change to the benchmark itself.
var staleFleetReads = map[string]string{
	"fleet_store_hits_total": "the proxy's result store and its hit counter are gone (its job table answers finished jobs), so fleet.store_hits reads 0",
}

// TestPerfbenchScrapesLiveFleetCounters checks that every fleet_* counter
// perfbench's serve-campaign reads by name is on a fresh Coordinator's
// /metrics, so a renamed or deleted counter cannot leave a per-layer
// metric reading 0 unnoticed.
func TestPerfbenchScrapesLiveFleetCounters(t *testing.T) {
	src, err := os.ReadFile("perfbench/servecampaign.go")
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	for _, m := range perfbenchDelta.FindAllStringSubmatch(string(src), -1) {
		read[m[1]] = true
	}
	if len(read) < 4 {
		t.Fatalf("found %d fleet_* reads in perfbench/servecampaign.go, want at least 4: has the delta helper been renamed?", len(read))
	}

	c, err := fleet.New(fleet.Config{Backends: []string{"http://127.0.0.1:1"}, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	published := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			published[strings.Fields(name)[0]] = true
		}
	}

	for name := range read {
		reason, stale := staleFleetReads[name]
		switch {
		case stale && published[name]:
			t.Errorf("%s is published again; drop it from staleFleetReads", name)
		case !stale && !published[name]:
			t.Errorf("perfbench reads %s, which a Coordinator's /metrics does not list", name)
		case stale:
			t.Logf("%s: expected absence: %s", name, reason)
		}
	}
	for name := range staleFleetReads {
		if !read[name] {
			t.Errorf("perfbench no longer reads %s; drop it from staleFleetReads", name)
		}
	}
}
