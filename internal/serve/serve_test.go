package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	_ "sring" // register the real methods

	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/pipeline"
	"sring/internal/ring"
	"sring/internal/serve"
	"sring/internal/wavelength"
)

// slowStarted signals that the SlowProbe constructor is running;
// slowRelease lets it finish normally. With neither touched it waits for
// cancellation and returns its best-feasible construction, Cancelled set —
// the pipeline's graceful-degradation contract, which the serve layer must
// surface rather than turn into an error.
var (
	slowStarted = make(chan struct{}, 16)
	slowRelease = make(chan struct{})
)

func init() {
	pipeline.Register("SlowProbe", func(ctx context.Context, app *netlist.Application, opt pipeline.Options, parent *obs.Span) (*pipeline.Construction, error) {
		slowStarted <- struct{}{}
		con, err := baseRing(app)
		if err != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			con.Cancelled = true
		case <-slowRelease:
		}
		return con, nil
	})
}

func baseRing(app *netlist.Application) (*pipeline.Construction, error) {
	var order []netlist.NodeID
	for _, n := range app.Nodes {
		order = append(order, n.ID)
	}
	r := &ring.Ring{ID: 0, Kind: ring.Base, Order: order}
	var paths []ring.Path
	for _, m := range app.Messages {
		p, err := ring.Route(app, r, m)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return &pipeline.Construction{Rings: []*ring.Ring{r}, Paths: paths, Weights: wavelength.DefaultWeights()}, nil
}

func postSynthesize(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/synthesize", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// badRequests is the request-validation table: every malformed request is
// a 400 with a JSON error body that names the problem. It also seeds
// FuzzSynthesizeRequest.
var badRequests = []struct {
	name     string
	body     string
	status   int
	errorHas string
}{
	{"bad method", `{"app":"MWD","method":"NoSuchMethod"}`, 400, "NoSuchMethod"},
	{"missing method", `{"app":"MWD"}`, 400, "method"},
	{"unknown app", `{"app":"NoSuchApp","method":"SRing"}`, 400, "NoSuchApp"},
	{"no app or netlist", `{"method":"SRing"}`, 400, "app"},
	{"app and netlist", `{"app":"MWD","netlist":{"name":"x"},"method":"SRing"}`, 400, "mutually exclusive"},
	{"app and generate", `{"app":"MWD","generate":{"kind":"random","n":4,"m":6},"method":"SRing"}`, 400, "mutually exclusive"},
	{"bad generator kind", `{"generate":{"kind":"nope"},"method":"SRing"}`, 400, "generator kind"},
	{"infeasible generator params", `{"generate":{"kind":"random","n":4,"m":99},"method":"SRing"}`, 400, "cannot place"},
	{"oversized generator", `{"generate":{"kind":"random","n":100000000,"m":99999999},"method":"SRing"}`, 400, "too large"},
	{"oversized clustered generator", `{"generate":{"kind":"clustered","clusters":2,"cluster_size":4,"inter_flows":2000000000},"method":"SRing"}`, 400, "too large"},
	{"bad circulant", `{"generate":{"kind":"circulant","n":8,"gens":[0]},"method":"SRing"}`, 400, "Circulant generator 0 out of range"},
	{"invalid tech", `{"app":"MWD","method":"SRing","options":{"tech":{"DropDB":-1}}}`, 400, "tech"},
	{"partial tech", `{"app":"MWD","method":"SRing","options":{"tech":{"DropDB":0.5}}}`, 400, "tech"},
	{"negative parallelism", `{"app":"MWD","method":"SRing","options":{"parallelism":-1}}`, 400, "non-negative"},
	{"unknown field", `{"app":"MWD","method":"SRing","bogus":1}`, 400, "bogus"},
	{"unknown oracle", `{"app":"MWD","method":"SRing","options":{"use_milp":true,"oracle":"bogus"}}`, 400, "unknown oracle"},
	{"oracle without milp", `{"app":"MWD","method":"SRing","options":{"oracle":"cp"}}`, 400, "MILP"},
	{"removed decompose option", `{"app":"MWD","method":"SRing","options":{"use_milp":true,"decompose":true}}`, 400, "decompose"},
	{"not json", `{{{`, 400, "bad request body"},
}

// Every badRequests body is rejected with its status and a JSON error
// naming the problem.
func TestSynthesizeBadRequests(t *testing.T) {
	h := (&serve.Server{}).Handler()
	for _, tc := range badRequests {
		t.Run(tc.name, func(t *testing.T) {
			w := postSynthesize(t, h, tc.body)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.status, w.Body)
			}
			var e map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.Contains(e["error"], tc.errorHas) {
				t.Errorf("error %q does not mention %q", e["error"], tc.errorHas)
			}
		})
	}

	t.Run("GET refused", func(t *testing.T) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/synthesize", nil))
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", w.Code)
		}
	})
}

// A well-formed request returns the design summary; an inline netlist works
// like a builtin one.
func TestSynthesizeOK(t *testing.T) {
	before := obs.Default().Snapshot()
	h := (&serve.Server{Cache: pipeline.NewCache()}).Handler()

	w := postSynthesize(t, h, `{"app":"MWD","method":"SRing","options":{"parallelism":1}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp serve.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.App != "MWD" || resp.Method != "SRing" || resp.Metrics == nil {
		t.Fatalf("summary incomplete: %+v", resp)
	}
	if resp.Metrics.NumWavelengths <= 0 || resp.Metrics.TotalLaserPowerMW <= 0 {
		t.Errorf("implausible metrics: %+v", resp.Metrics)
	}
	if obs.Default().Snapshot().Sub(before).Histograms["serve.request.ns"].Count == 0 {
		t.Error("serve.request.ns recorded nothing")
	}

	t.Run("generated app with CP oracle", func(t *testing.T) {
		w := postSynthesize(t, h, `{"generate":{"kind":"clustered","clusters":2,"cluster_size":3,"inter_flows":1,"seed":1},
			"method":"SRing","options":{"parallelism":1,"use_milp":true,"oracle":"cp","milp_time_limit_ms":500}}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		var gen serve.Response
		if err := json.Unmarshal(w.Body.Bytes(), &gen); err != nil {
			t.Fatal(err)
		}
		if gen.App != "clustered-k2-c3" || gen.Metrics == nil || gen.Metrics.NumWavelengths <= 0 {
			t.Errorf("generated synthesis incomplete: %+v", gen)
		}
	})

	t.Run("inline netlist", func(t *testing.T) {
		var nl bytes.Buffer
		if err := netlist.Encode(&nl, netlist.MWD()); err != nil {
			t.Fatal(err)
		}
		w := postSynthesize(t, h, `{"netlist":`+nl.String()+`,"method":"SRing","options":{"parallelism":1}}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		var inl serve.Response
		if err := json.Unmarshal(w.Body.Bytes(), &inl); err != nil {
			t.Fatal(err)
		}
		if inl.Metrics == nil || inl.Metrics.TotalLaserPowerMW != resp.Metrics.TotalLaserPowerMW {
			t.Errorf("inline netlist diverged from builtin: %+v vs %+v", inl.Metrics, resp.Metrics)
		}
	})
}

// A context that fell before synthesis started is the client's doing: 499,
// no design.
func TestSynthesizePreCancelled(t *testing.T) {
	h := (&serve.Server{}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/synthesize",
		strings.NewReader(`{"app":"MWD","method":"SRing"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 499 {
		t.Errorf("status = %d, want 499", w.Code)
	}
}

// A client disconnecting mid-flight cancels the request context; the
// pipeline degrades to its best incumbent and the serve layer reports it
// with Cancelled set rather than failing.
func TestSynthesizeMidFlightDisconnect(t *testing.T) {
	h := (&serve.Server{}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/synthesize",
		strings.NewReader(`{"app":"MWD","method":"SlowProbe","options":{"parallelism":1}}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(w, req)
		close(done)
	}()
	<-slowStarted // the constructor is running; now the client vanishes
	cancel()
	<-done
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp serve.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cancelled {
		t.Error("mid-flight disconnect did not surface Cancelled on the incumbent design")
	}
	if resp.Metrics == nil {
		t.Error("incumbent design has no metrics")
	}
}

// Streaming responses carry one stage event per pipeline span before the
// final result.
func TestSynthesizeStreaming(t *testing.T) {
	h := (&serve.Server{Cache: pipeline.NewCache()}).Handler()
	w := postSynthesize(t, h, `{"app":"MWD","method":"SRing","options":{"parallelism":1},"stream":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want NDJSON", ct)
	}
	var events []serve.Event
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want stage events plus a result", len(events))
	}
	last := events[len(events)-1]
	if last.Event != "result" || last.Result == nil || last.Result.Metrics == nil {
		t.Fatalf("final event is not a result: %+v", last)
	}
	seen := map[string]bool{}
	for _, e := range events[:len(events)-1] {
		if e.Event != "stage" {
			t.Errorf("unexpected mid-stream event %+v", e)
		}
		seen[e.Span] = true
	}
	for _, span := range []string{"synthesize", "design.layout", "wavelength.assign", "design.pdn"} {
		if !seen[span] {
			t.Errorf("no stage event for span %q (saw %v)", span, seen)
		}
	}
}

// The ancillary endpoints: methods, stats, metrics, health.
func TestAncillaryEndpoints(t *testing.T) {
	srv := &serve.Server{Cache: pipeline.NewCache()}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var methods map[string][]string
	getJSON(t, ts.URL+"/methods", &methods)
	if len(methods["methods"]) < 4 {
		t.Errorf("methods = %v", methods)
	}
	// The apps list is the full netlist registry: paper benchmarks plus the
	// extended task graphs plus the scale apps.
	if want := netlist.Names(); len(methods["apps"]) != len(want) || len(want) <= 7 {
		t.Errorf("apps = %v, want the %d registry names", methods["apps"], len(want))
	}

	var stats pipeline.CacheStats
	getJSON(t, ts.URL+"/stats.json", &stats)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Errorf("/healthz: HTTP %d", hresp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, into interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// The loadgen smoke test: replay all seven benchmark applications (the
// default mix) at concurrency 4 against a live server, cold then warm.
// Short mode keeps it to the three small apps.
func TestLoadgenSmoke(t *testing.T) {
	// MaxInflight off: this test drives concurrency above the default cap
	// on small machines and is about cache behaviour, not load shedding.
	srv := &serve.Server{Cache: pipeline.NewCache(), MaxParallelism: 2, MaxInflight: -1}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mix := serve.DefaultMix()
	if testing.Short() || os.Getenv("CI") != "" {
		mix = mix[:3]
	}
	res, err := serve.Replay(context.Background(), serve.ReplayConfig{
		BaseURL:     ts.URL,
		Concurrency: 4,
		Mix:         mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cold) != len(res.Warm) {
		t.Fatalf("cold/warm name counts differ: %d vs %d", len(res.Cold), len(res.Warm))
	}
	wantNames := map[string]bool{}
	for _, r := range mix {
		wantNames["Serve/"+r.App+"/"+r.Method] = true
	}
	for _, s := range res.Warm {
		delete(wantNames, s.Name)
	}
	if len(wantNames) > 0 {
		t.Errorf("warm pass missing entries: %v", wantNames)
	}
	if res.Hits == 0 {
		t.Error("warm pass produced no cache hits")
	}
	if res.HitRate < 0.4 {
		t.Errorf("hit rate = %.2f, want >= 0.4 over cold+warm", res.HitRate)
	}
	if res.WarmP50() >= res.ColdP50() {
		t.Errorf("warm p50 %d >= cold p50 %d: cache bought nothing", res.WarmP50(), res.ColdP50())
	}
	for _, s := range res.Warm {
		if s.P99Ns < s.P50Ns {
			t.Errorf("%s: p99 %d < p50 %d", s.Name, s.P99Ns, s.P50Ns)
		}
	}
	if res.WarmWallNs <= 0 {
		t.Errorf("warm pass wall-clock %d ns", res.WarmWallNs)
	}
}

// A saturated server sheds load: beyond MaxInflight concurrently running
// /synthesize requests, new ones are rejected immediately with 429 and a
// Retry-After hint — not queued behind a synthesis that may hold its CPU
// for a full MILP budget — and the shed shows up on the rejected counter.
func TestSynthesizeBackpressure(t *testing.T) {
	before := obs.Default().Snapshot()
	rejected := func() int64 { return obs.Default().Snapshot().Sub(before).Counters["serve.rejected"] }
	h := (&serve.Server{MaxInflight: 1}).Handler()
	body := `{"app":"MWD","method":"SlowProbe","options":{"parallelism":1}}`

	first := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(first, httptest.NewRequest(http.MethodPost, "/synthesize", strings.NewReader(body)))
		close(done)
	}()
	<-slowStarted // the only slot is now held by the slow synthesis

	w := postSynthesize(t, h, body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("429 body is not a JSON error: %q", w.Body)
	}
	if got := rejected(); got != 1 {
		t.Errorf("serve.rejected = %d, want 1", got)
	}

	slowRelease <- struct{}{}
	<-done
	if first.Code != http.StatusOK {
		t.Fatalf("slot-holding request failed: %d: %s", first.Code, first.Body)
	}

	// The slot is free again: the next request is served, not rejected.
	w = postSynthesize(t, h, `{"app":"MWD","method":"SRing","options":{"parallelism":1}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200: %s", w.Code, w.Body)
	}
	if got := rejected(); got != 1 {
		t.Errorf("serve.rejected after release = %d, want still 1", got)
	}
}

// A flaky server — every second /synthesize rejected with 503 — must not
// poison the replay: the failed requests are counted per name and excluded
// from the latency percentiles, and the replay itself still succeeds.
func TestLoadgenFlakyServer(t *testing.T) {
	srv := &serve.Server{Cache: pipeline.NewCache(), MaxInflight: -1}
	inner := srv.Handler()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/synthesize" && n.Add(1)%2 == 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"synthetic flake"}`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	mix := []serve.Request{{App: "MWD", Method: "SRing"}}
	res, err := serve.Replay(context.Background(), serve.ReplayConfig{
		BaseURL:     ts.URL,
		Concurrency: 1,
		Repeat:      6,
		Mix:         mix,
	})
	if err != nil {
		t.Fatalf("flaky responses must not fail the replay: %v", err)
	}
	total := res.TotalErrors()
	if total == 0 {
		t.Fatal("no errors counted although half the requests were 503s")
	}
	var served, errs int
	for _, s := range res.Warm {
		served += s.Count
		errs += s.Errors
	}
	for _, s := range res.Cold {
		served += s.Count
		errs += s.Errors
	}
	// 1 cold + 6 warm requests, every second one rejected.
	if served+errs != 7 {
		t.Fatalf("served %d + errors %d != 7 requests sent", served, errs)
	}
	if errs != total {
		t.Fatalf("TotalErrors() = %d, per-name sum = %d", total, errs)
	}
	for _, s := range append(append([]serve.ReplayStats{}, res.Cold...), res.Warm...) {
		if s.Count > 0 && s.P50Ns <= 0 {
			t.Errorf("%s: served requests but p50 = %d", s.Name, s.P50Ns)
		}
		if s.Count == 0 && s.P50Ns != 0 {
			t.Errorf("%s: no served requests but p50 = %d", s.Name, s.P50Ns)
		}
	}
}
