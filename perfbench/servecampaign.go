package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abndp/client"
	"abndp/internal/fleet"
	"abndp/internal/serve"
)

// serve-campaign runs an in-process fleet on loopback: nproc (at least 2)
// serve.Server backends with one worker each behind one fleet.Coordinator,
// both otherwise at their command defaults, driven by serveCallers
// closed-loop client.SubmitWait callers replaying the seed's sequence.
const serveCallers = 2

func serveBackends() int { return max(2, runtime.NumCPU()) }

var serveCampaign = &workload{
	name:   "serve-campaign",
	sample: serveSample,
	verify: verifyServe,
	context: func(seed int64) map[string]any {
		seq := mustSequence(seed)
		return map[string]any{
			"backends": serveBackends(), "workers_per_backend": 1, "callers": serveCallers,
			"requests_per_sample": len(seq), "distinct_keys": len(seq) / campaignPasses,
			"repeat_share": repeatShare(seq),
		}
	},
}

func mustSequence(seed int64) []Key {
	seq, err := Sequence(seed)
	if err != nil {
		fatal(err)
	}
	return seq
}

// reqResult is one client request of the sequence.
type reqResult struct {
	start, end time.Time
	st         *client.RunStatus
	err        error
}

func serveSample(seed int64, traced bool, t0 time.Time) *sample {
	seq := mustSequence(seed)
	f, err := startFleet(serveBackends(), traced, len(seq))
	if err != nil {
		fatal(err)
	}
	defer f.close()
	s := &sample{SetupS: time.Since(t0).Seconds(), Hashes: map[string]string{}, Counts: map[string]int{}}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var before map[string]float64
	var prof *os.File
	if traced {
		if before, err = scrapeFleet(ctx, f.proxy.URL); err != nil {
			fatal(err)
		}
		prof = startProfile()
	}

	res := make([]reqResult, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	a0 := totalAlloc()
	start := time.Now()
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(f.proxy.URL)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				t := time.Now()
				st, err := cl.SubmitWait(context.WithValue(ctx, requestKey{}, i), seq[i].Request())
				res[i] = reqResult{start: t, end: time.Now(), st: st, err: err}
			}
		}()
	}
	wg.Wait()
	s.WallS = time.Since(start).Seconds()
	s.AllocBytes = totalAlloc() - a0
	if traced {
		pprof.StopCPUProfile()
	}

	for i, r := range res {
		key := seq[i].String()
		s.LatMS = append(s.LatMS, ms(r.end.Sub(r.start)))
		switch {
		case r.err != nil:
			s.fail("serve-campaign %s: %v", key, r.err)
		case r.st.Status != serve.StateDone || r.st.ResultHash == "":
			s.fail("serve-campaign %s: status %s %s", key, r.st.Status, r.st.Error)
		case s.Hashes[key] != "" && s.Hashes[key] != r.st.ResultHash:
			s.fail("serve-campaign %s: result hash %s, earlier %s", key, r.st.ResultHash, s.Hashes[key])
		default:
			s.Hashes[key] = r.st.ResultHash
			s.Counts[key]++
		}
	}
	if traced {
		if s.Layers, err = f.layers(ctx, seq, res, before, prof); err != nil {
			fatal(err)
		}
	}
	return s
}

// verifyServe checks every completed job's result hash against a direct
// golden-engine run of the same spec, outside the timed window.
func verifyServe(seed int64, samples []*sample) int {
	keys := map[string]Key{}
	for _, k := range mustSequence(seed) {
		keys[k.String()] = k
	}
	refs := map[string]string{}
	failed := 0
	for _, s := range samples {
		for name, hash := range s.Hashes {
			ref, ok := refs[name]
			if !ok {
				var err error
				if ref, err = keys[name].Reference(); err != nil {
					fatal(fmt.Errorf("reference run %s: %w", name, err))
				}
				refs[name] = ref
			}
			if hash != ref {
				failed += s.Counts[name]
				fmt.Fprintf(os.Stderr, "perfbench: FAIL serve-campaign %s: result_hash %s, direct run %s\n", name, hash, ref)
			}
		}
	}
	return failed
}

// Traced samples attribute handler time to client requests: the client
// context carries the request's index, tagTransport copies it into a
// header on every outgoing call (the callers' and the proxy's, which
// derives its backend calls from the incoming request's context), and
// requestTimer reads it back on the proxy and on every backend.
const requestHeader = "X-Perfbench-Request"

type requestKey struct{}

type tagTransport struct{ next http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestHeader, strconv.Itoa(id))
	}
	return t.next.RoundTrip(r)
}

func (t tagTransport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// handlerTime accumulates handler time per client request.
type handlerTime struct {
	ns    []atomic.Int64 // indexed by client request
	calls atomic.Int64
}

// requestTimer times the tagged requests through a handler into acc.
type requestTimer struct {
	next http.Handler
	acc  *handlerTime
}

func (h requestTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(requestHeader))
	if err != nil || id < 0 || id >= len(h.acc.ns) {
		h.next.ServeHTTP(w, r)
		return
	}
	r = r.WithContext(context.WithValue(r.Context(), requestKey{}, id))
	t := time.Now()
	h.next.ServeHTTP(w, r)
	h.acc.ns[id].Add(int64(time.Since(t)))
	h.acc.calls.Add(1)
}

// fleetUnderTest is the in-process fleet of one sample.
type fleetUnderTest struct {
	servers  []*serve.Server
	backends []*httptest.Server
	coord    *fleet.Coordinator
	proxy    *httptest.Server

	proxyT, backendT *handlerTime // traced samples only
}

// startFleet starts the backends, then the proxy, whose constructor runs
// the first probe round. A traced fleet times requests up to the index
// requests.
func startFleet(n int, traced bool, requests int) (*fleetUnderTest, error) {
	// The commands' default log format and level, discarded.
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	f := &fleetUnderTest{}
	if traced {
		http.DefaultTransport = tagTransport{next: http.DefaultTransport}
		f.proxyT = &handlerTime{ns: make([]atomic.Int64, requests)}
		f.backendT = &handlerTime{ns: make([]atomic.Int64, requests)}
	}
	var urls []string
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{ID: fmt.Sprintf("b%d", i+1), Workers: 1, Checkpoint: true, Logger: logger})
		var h http.Handler = srv.Handler()
		if traced {
			h = requestTimer{next: h, acc: f.backendT}
		}
		ts := httptest.NewServer(h)
		f.servers = append(f.servers, srv)
		f.backends = append(f.backends, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := fleet.New(fleet.Config{Backends: urls, Logger: logger})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	var h http.Handler = coord.Handler()
	if traced {
		h = requestTimer{next: h, acc: f.proxyT}
	}
	f.proxy = httptest.NewServer(h)
	return f, nil
}

func (f *fleetUnderTest) close() {
	if f.proxy != nil {
		f.proxy.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, srv := range f.servers {
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: backend drain:", err)
		}
		f.backends[i].Close()
	}
	http.DefaultClient.CloseIdleConnections()
}

// layers computes the per-layer metrics of a traced serve sample.
func (f *fleetUnderTest) layers(ctx context.Context, seq []Key, res []reqResult, before map[string]float64, prof *os.File) (map[string]float64, error) {
	out, err := profileLayers(prof)
	if err != nil {
		return nil, err
	}
	after, err := scrapeFleet(ctx, f.proxy.URL)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	n := float64(len(seq))

	// Proxy self time of a client request: its proxy handler time minus
	// the backend handler time of the calls the proxy made for it.
	self := make([]float64, len(seq))
	for i := range self {
		self[i] = float64(f.proxyT.ns[i].Load()-f.backendT.ns[i].Load()) / 1e6
	}
	out["fleet.self_ms"] = quantile(self, 0.5)
	out["fleet.calls_per_req"] = float64(f.backendT.calls.Load()) / n
	out["fleet.dedup_joins"] = delta("fleet_jobs_deduped")
	out["fleet.store_hits"] = delta("fleet_store_hits_total")
	out["fleet.retry_rounds"] = delta("fleet_dispatch_retry_rounds_total")
	if d := delta("fleet_dispatches_total"); d > 0 {
		out["fleet.owner_share"] = 1 - delta("fleet_load_reroutes_total")/d
	}

	// Per-backend numbers come from each Server's own Runner and /healthz:
	// the serve_* gauges on /metrics describe the first backend only.
	var runs, jobs, hits, lookups, maxRuns int64
	var engineS float64
	for i, srv := range f.servers {
		r := srv.Runner()
		runs += r.RunsExecuted()
		maxRuns = max(maxRuns, r.RunsExecuted())
		_, secs := r.EngineTotals()
		engineS += secs
		if st := r.Store(); st != nil {
			stats := st.Stats()
			hits += stats.Hits
			lookups += stats.Hits + stats.Misses
		}
		h, err := client.New(f.backends[i].URL).Health(ctx)
		if err != nil {
			return nil, err
		}
		jobs += h.Completed + h.Failed
	}
	out["serve.runs_executed"] = float64(runs)
	out["serve.engine_s"] = engineS
	if runs > 0 {
		out["fleet.backend_skew"] = float64(maxRuns) / (float64(runs) / float64(len(f.servers)))
	}
	if jobs > 0 {
		out["bench.memo_hit_share"] = float64(jobs-runs) / float64(jobs)
	}
	if lookups > 0 {
		out["ckpt.hit_share"] = float64(hits) / float64(lookups)
	}
	out["serve.repeat_share"] = repeatShare(seq)

	// Queue wait and run time as each client request saw them: the part of
	// the request's own interval the job spent queued or running. A request
	// answered from a finished job saw neither.
	var queue, run []float64
	for _, r := range res {
		if r.err != nil || r.st == nil {
			continue
		}
		sub, _ := time.Parse(time.RFC3339Nano, r.st.SubmittedAt)
		beg, _ := time.Parse(time.RFC3339Nano, r.st.StartedAt)
		fin, _ := time.Parse(time.RFC3339Nano, r.st.FinishedAt)
		queue = append(queue, overlapMS(sub, beg, r.start, r.end))
		run = append(run, overlapMS(beg, fin, r.start, r.end))
	}
	out["serve.queue_wait_p50_ms"] = quantile(queue, 0.5)
	out["serve.queue_wait_p99_ms"] = quantile(queue, 0.99)
	out["serve.run_p50_ms"] = quantile(run, 0.5)
	out["serve.run_p99_ms"] = quantile(run, 0.99)
	return out, nil
}

// overlapMS is the length of [a0, a1] intersected with [b0, b1].
func overlapMS(a0, a1, b0, b1 time.Time) float64 {
	if a0.IsZero() || a1.IsZero() {
		return 0
	}
	lo, hi := a0, a1
	if b0.After(lo) {
		lo = b0
	}
	if b1.Before(hi) {
		hi = b1
	}
	if !hi.After(lo) {
		return 0
	}
	return ms(hi.Sub(lo))
}

// scrapeFleet reads the unlabelled fleet_* counters from the proxy's
// /metrics. They are process-wide, so callers take deltas.
func scrapeFleet(ctx context.Context, proxyURL string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, proxyURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "fleet_") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
