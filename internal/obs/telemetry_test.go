package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// The /metrics exposition must round-trip: the text parses line by line,
// and the repo's dotted naming conventions (lp.sparse.*, pipeline.cache.*)
// survive recognisably as their underscore forms.
func TestTelemetryMetricsRoundTrip(t *testing.T) {
	reg := Default()
	before := reg.Snapshot()
	reg.Counter("pipeline.cache.hits").Add(7)
	reg.Counter("pipeline.cache.misses").Add(2)
	reg.Counter("lp.sparse.solves").Add(3)
	reg.Histogram("lp.sparse.refactor.ns").Record(1500)
	reg.Histogram("lp.sparse.refactor.ns").Record(800)
	reg.Histogram("pipeline.stage.construct.ns").Record(1 << 20)
	// Expected readings are deltas on top of whatever earlier tests in
	// this process counted.
	was := before.Counters
	var wasRefactor int64
	if h := before.Histograms["lp.sparse.refactor.ns"]; h != nil {
		wasRefactor = h.Count
	}

	ts, err := ServeTelemetry("127.0.0.1:0", TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	body, ctype := get(t, "http://"+ts.Addr()+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("content type = %q, want text/plain version 0.0.4", ctype)
	}

	// Parse the exposition: every non-comment line is `name[{labels}] value`,
	// histograms carry monotone cumulative buckets ending at +Inf = _count.
	type hist struct {
		lastCum, inf, count int64
		sawSum              bool
	}
	hists := map[string]*hist{}
	counters := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var value int64
		if i := strings.Index(line, "{"); i >= 0 {
			j := strings.LastIndex(line, "} ")
			if j < 0 {
				t.Fatalf("unparseable labeled line: %q", line)
			}
			name = line[:i]
			if _, err := fmt.Sscanf(line[j+2:], "%d", &value); err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			base := strings.TrimSuffix(name, "_bucket")
			h := hists[base]
			if h == nil {
				h = &hist{}
				hists[base] = h
			}
			if strings.Contains(line, `le="+Inf"`) {
				h.inf = value
			} else {
				if value < h.lastCum {
					t.Errorf("non-monotone cumulative buckets in %q", line)
				}
				h.lastCum = value
			}
			continue
		}
		if _, err := fmt.Sscanf(line, "%s %d", &name, &value); err != nil {
			t.Fatalf("unparseable line: %q", line)
		}
		switch {
		case strings.HasSuffix(name, "_sum"):
			if h := hists[strings.TrimSuffix(name, "_sum")]; h != nil {
				h.sawSum = true
			}
		case strings.HasSuffix(name, "_count") && hists[strings.TrimSuffix(name, "_count")] != nil:
			hists[strings.TrimSuffix(name, "_count")].count = value
		default:
			counters[name] = value
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if counters["pipeline_cache_hits"]-was["pipeline.cache.hits"] != 7 ||
		counters["pipeline_cache_misses"]-was["pipeline.cache.misses"] != 2 {
		t.Errorf("cache counters = %v, before %v", counters, was)
	}
	if got := counters["lp_sparse_solves"] - was["lp.sparse.solves"]; got != 3 {
		t.Errorf("lp_sparse_solves delta = %d, want 3", got)
	}
	h := hists["lp_sparse_refactor_ns"]
	if h == nil {
		t.Fatalf("lp_sparse_refactor_ns histogram missing; hists = %v", hists)
	}
	if n := wasRefactor + 2; h.count != n || h.inf != n || h.lastCum != n || !h.sawSum {
		t.Errorf("lp_sparse_refactor_ns = %+v, want count=inf=cum=%d with _sum", h, n)
	}
	if hists["pipeline_stage_construct_ns"] == nil {
		t.Error("pipeline_stage_construct_ns histogram missing")
	}

	// The JSON mirror parses too.
	if body, _ := get(t, "http://"+ts.Addr()+"/metrics.json"); !strings.Contains(body, "pipeline.cache.hits") {
		t.Errorf("/metrics.json missing dotted names: %s", body)
	}
}

// The endpoint serves pprof and trace snapshots alongside the metrics.
func TestTelemetryPprofAndTrace(t *testing.T) {
	rec := New()
	sp := rec.StartSpan("solve")
	sp.End()

	ts, err := ServeTelemetry("127.0.0.1:0", TelemetryOptions{Trace: rec.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	if body, _ := get(t, "http://"+ts.Addr()+"/debug/pprof/heap?debug=1"); !strings.Contains(body, "heap profile") {
		t.Errorf("/debug/pprof/heap not a heap profile: %.80s", body)
	}
	if body, _ := get(t, "http://"+ts.Addr()+"/trace.json"); !strings.Contains(body, `"solve"`) {
		t.Errorf("/trace.json missing the recorded span: %s", body)
	}
	if body, _ := get(t, "http://"+ts.Addr()+"/trace.chrome.json"); !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/trace.chrome.json not in trace-event format: %s", body)
	}
	if body, _ := get(t, "http://"+ts.Addr()+"/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index missing route list: %s", body)
	}
}

// Close is idempotent enough for defer stacking and safe on nil.
func TestTelemetryClose(t *testing.T) {
	var nilTS *TelemetryServer
	if err := nilTS.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
	if nilTS.Addr() != "" {
		t.Error("nil Addr not empty")
	}
	ts, err := ServeTelemetry("127.0.0.1:0", TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
}
