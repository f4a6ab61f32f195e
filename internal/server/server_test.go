package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"provmin/internal/cluster"
	"provmin/internal/engine"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4, CacheSize: 16})
	ts := httptest.NewServer(New(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func createPaperInstance(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	status, body := doJSON(t, "POST", ts.URL+"/instances", map[string]string{
		"initial": "R r1 a a\nR r2 a b\nR r3 b a",
	})
	if status != http.StatusCreated {
		t.Fatalf("create instance: status %d: %s", status, body)
	}
	var info struct {
		ID     string `json:"id"`
		Tuples int    `json:"tuples"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Tuples != 3 {
		t.Fatalf("unexpected instance info: %s", body)
	}
	return info.ID
}

// TestEndToEndCoreCaching is the acceptance-criteria suite: create an
// instance, ingest tuples, run the same core query twice, observe the
// cache hit in /metrics, and require byte-identical core provenance.
func TestEndToEndCoreCaching(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)

	// Batched ingest of two more facts.
	status, body := doJSON(t, "POST", ts.URL+"/instances/"+id+"/tuples", map[string]any{
		"facts": []map[string]any{
			{"rel": "R", "tag": "r4", "values": []string{"b", "b"}},
			{"rel": "R", "tag": "r5", "values": []string{"c", "a"}},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, body)
	}
	var ing struct {
		Ingested int `json:"ingested"`
		Instance struct {
			Tuples  int    `json:"tuples"`
			Version uint64 `json:"version"`
		} `json:"instance"`
	}
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Ingested != 2 || ing.Instance.Tuples != 5 || ing.Instance.Version == 0 {
		t.Fatalf("unexpected ingest response: %s", body)
	}

	coreBody := map[string]string{
		"instance": id,
		"query":    "ans(x) :- R(x,y), R(y,x)",
	}
	type coreResp struct {
		CacheHit  bool            `json:"cache_hit"`
		Minimized string          `json:"minimized"`
		Tuples    json.RawMessage `json:"tuples"`
	}
	var first, second coreResp

	status, body = doJSON(t, "POST", ts.URL+"/core", coreBody)
	if status != http.StatusOK {
		t.Fatalf("core #1: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatalf("first core request reported cache_hit: %s", body)
	}

	status, body = doJSON(t, "POST", ts.URL+"/core", coreBody)
	if status != http.StatusOK {
		t.Fatalf("core #2: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("second core request missed the cache: %s", body)
	}

	// Byte-identical core provenance across cold and cached runs.
	if !bytes.Equal(first.Tuples, second.Tuples) {
		t.Fatalf("core provenance differs between runs:\n#1: %s\n#2: %s", first.Tuples, second.Tuples)
	}
	if first.Minimized != second.Minimized {
		t.Fatalf("minimized form differs: %q vs %q", first.Minimized, second.Minimized)
	}

	// The cache hit is visible in /metrics (Prometheus text).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"engine_cache_hits_total 1",
		"engine_cache_misses_total 1",
		"engine_core_total 2",
		"engine_instances 1",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	// And in the JSON snapshot.
	status, body = doJSON(t, "GET", ts.URL+"/metrics?format=json", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics json: status %d", status)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics snapshot not JSON: %v", err)
	}
	if snap["engine_cache_hits_total"] != float64(1) {
		t.Fatalf("snapshot cache hits = %v, want 1", snap["engine_cache_hits_total"])
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)
	status, body := doJSON(t, "POST", ts.URL+"/query", map[string]string{
		"instance": id,
		"query":    "ans(x) :- R(x,y), R(y,x)",
	})
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	var out struct {
		Class  string `json:"class"`
		Tuples []struct {
			Tuple      []string `json:"tuple"`
			Provenance string   `json:"provenance"`
		} `json:"tuples"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2: %s", len(out.Tuples), body)
	}
	if out.Class == "" {
		t.Fatalf("missing query class: %s", body)
	}
	for _, ot := range out.Tuples {
		if ot.Provenance == "" {
			t.Fatalf("tuple %v missing provenance", ot.Tuple)
		}
	}
}

func TestCoreGetAndDirect(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)
	q := "ans(x) :- R(x,y), R(y,x)"

	status, viaPost := doJSON(t, "POST", ts.URL+"/core", map[string]string{"instance": id, "query": q})
	if status != http.StatusOK {
		t.Fatalf("POST /core: %d: %s", status, viaPost)
	}
	status, viaGet := doJSON(t, "GET",
		ts.URL+"/core?instance="+id+"&q="+strings.ReplaceAll(q, " ", "+"), nil)
	if status != http.StatusOK {
		t.Fatalf("GET /core: %d: %s", status, viaGet)
	}
	status, viaDirect := doJSON(t, "POST", ts.URL+"/core",
		map[string]any{"instance": id, "query": q, "direct": true})
	if status != http.StatusOK {
		t.Fatalf("direct core: %d: %s", status, viaDirect)
	}

	tuples := func(raw []byte) string {
		var v struct {
			Tuples json.RawMessage `json:"tuples"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		return string(v.Tuples)
	}
	if tuples(viaPost) != tuples(viaGet) {
		t.Fatalf("GET core differs from POST:\n%s\n%s", viaGet, viaPost)
	}
	if tuples(viaPost) != tuples(viaDirect) {
		t.Fatalf("direct (Thm 5.1) core differs from minimized-eval core:\n%s\n%s", viaDirect, viaPost)
	}
}

func TestAppsEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)
	q := "ans(x) :- R(x,y), R(y,x)"

	status, body := doJSON(t, "POST", ts.URL+"/prob", map[string]any{
		"instance": id, "query": q, "tuple": []string{"a"}, "default": 0.5, "use_core": true,
	})
	if status != http.StatusOK {
		t.Fatalf("prob: %d: %s", status, body)
	}
	var pr struct {
		Probability float64 `json:"probability"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	// P((a)) = 1 - (1-1/2)(1-1/4) = 0.625 with independent p=1/2 tags.
	if pr.Probability < 0.624 || pr.Probability > 0.626 {
		t.Fatalf("probability = %v, want 0.625", pr.Probability)
	}

	status, body = doJSON(t, "POST", ts.URL+"/trust", map[string]any{
		"instance": id, "query": q, "tuple": []string{"a"}, "default": 1.0,
	})
	if status != http.StatusOK {
		t.Fatalf("trust: %d: %s", status, body)
	}
	var tr struct {
		Mode  string  `json:"mode"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Mode != "cost" || tr.Value != 2 {
		t.Fatalf("trust = %+v, want cost 2", tr)
	}

	status, body = doJSON(t, "POST", ts.URL+"/deletion", map[string]any{
		"instance": id, "query": q, "deleted": []string{"r2"},
	})
	if status != http.StatusOK {
		t.Fatalf("deletion: %d: %s", status, body)
	}
	var del struct {
		Survivors [][]string `json:"survivors"`
		Lost      [][]string `json:"lost"`
	}
	if err := json.Unmarshal(body, &del); err != nil {
		t.Fatal(err)
	}
	if len(del.Survivors) != 1 || len(del.Lost) != 1 {
		t.Fatalf("deletion = %+v, want 1 survivor 1 lost", del)
	}
}

func TestInstanceLifecycleAndErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)

	status, body := doJSON(t, "GET", ts.URL+"/instances", nil)
	if status != http.StatusOK || !strings.Contains(string(body), id) {
		t.Fatalf("list: %d: %s", status, body)
	}
	status, _ = doJSON(t, "GET", ts.URL+"/instances/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("get: %d", status)
	}
	status, _ = doJSON(t, "GET", ts.URL+"/instances/nope", nil)
	if status != http.StatusNotFound {
		t.Fatalf("get missing: %d, want 404", status)
	}
	status, _ = doJSON(t, "POST", ts.URL+"/query", map[string]string{"instance": "nope", "query": "ans(x) :- R(x,y)"})
	if status != http.StatusNotFound {
		t.Fatalf("query missing instance: %d, want 404", status)
	}
	status, _ = doJSON(t, "POST", ts.URL+"/query", map[string]string{"instance": id, "query": "not a query"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad query: %d, want 400", status)
	}
	status, _ = doJSON(t, "POST", ts.URL+"/query", map[string]string{"instance": id, "query": "ans(x) :- R(x,y)", "typo": "x"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", status)
	}
	status, _ = doJSON(t, "DELETE", ts.URL+"/instances/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("delete: %d", status)
	}
	status, _ = doJSON(t, "DELETE", ts.URL+"/instances/"+id, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", status)
	}

	status, body = doJSON(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d: %s", status, body)
	}
}

// TestUnknownInstance404AllRoutes is the regression table for the error
// mapping audit: every endpoint that names an instance must answer 404 —
// never 500 — when the id is unknown, no matter how deeply the engine
// wraps its lookup failure.
func TestUnknownInstance404AllRoutes(t *testing.T) {
	ts, _ := newTestServer(t)
	const q = "ans(x) :- R(x,y), R(y,x)"
	cases := []struct {
		name   string
		method string
		path   string
		body   any
	}{
		{"query", "POST", "/query", map[string]any{"instance": "nope", "query": q}},
		{"core_post", "POST", "/core", map[string]any{"instance": "nope", "query": q}},
		{"core_post_direct", "POST", "/core", map[string]any{"instance": "nope", "query": q, "direct": true}},
		{"core_get", "GET", "/core?instance=nope&q=ans(x)+:-+R(x,y)", nil},
		{"prob", "POST", "/prob", map[string]any{"instance": "nope", "query": q, "tuple": []string{"a"}}},
		{"trust", "POST", "/trust", map[string]any{"instance": "nope", "query": q, "tuple": []string{"a"}}},
		{"deletion", "POST", "/deletion", map[string]any{"instance": "nope", "query": q, "deleted": []string{"r1"}}},
		{"ingest", "POST", "/instances/nope/tuples", map[string]any{"facts": []map[string]any{{"rel": "R", "tag": "t", "values": []string{"a", "a"}}}}},
		{"get_instance", "GET", "/instances/nope", nil},
		{"drop_instance", "DELETE", "/instances/nope", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			if status != http.StatusNotFound {
				t.Fatalf("%s %s: status %d, want 404: %s", tc.method, tc.path, status, body)
			}
			if !strings.Contains(string(body), "no such instance") {
				t.Errorf("%s %s: error body %s, want it to name the missing instance", tc.method, tc.path, body)
			}
		})
	}
}

// TestResultCacheOverHTTP: the /query and /core responses carry the
// result-cache status, ingest invalidates, and /admin/cache reports the
// occupancy.
func TestResultCacheOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)
	q := map[string]string{"instance": id, "query": "ans(x) :- R(x,y), R(y,x)"}

	var out struct {
		Version        uint64          `json:"version"`
		ResultCacheHit bool            `json:"result_cache_hit"`
		MaintainedHit  bool            `json:"maintained_hit"`
		Tuples         json.RawMessage `json:"tuples"`
	}
	status, body := doJSON(t, "POST", ts.URL+"/query", q)
	if status != http.StatusOK {
		t.Fatalf("query #1: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ResultCacheHit {
		t.Fatalf("first query reported result_cache_hit: %s", body)
	}
	coldTuples := append([]byte(nil), out.Tuples...)

	status, body = doJSON(t, "POST", ts.URL+"/query", q)
	if status != http.StatusOK {
		t.Fatalf("query #2: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.ResultCacheHit {
		t.Fatalf("repeat query missed the result cache: %s", body)
	}
	if !bytes.Equal(out.Tuples, coldTuples) {
		t.Fatalf("cached tuples differ from cold run:\ncold: %s\nhit:  %s", coldTuples, out.Tuples)
	}

	// Ingest promotes the entry with delta maintenance: the next query is
	// still a hit, at the bumped generation, flagged maintained — and its
	// tuples reflect the inserted fact.
	status, body = doJSON(t, "POST", ts.URL+"/instances/"+id+"/tuples", map[string]any{
		"facts": []map[string]any{{"rel": "R", "tag": "r4", "values": []string{"b", "b"}}},
	})
	if status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	prevVer := out.Version
	status, body = doJSON(t, "POST", ts.URL+"/query", q)
	if status != http.StatusOK {
		t.Fatalf("query #3: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.ResultCacheHit || !out.MaintainedHit || out.Version != prevVer+1 {
		t.Fatalf("query after ingest: hit=%t maintained=%t version %d -> %d: %s",
			out.ResultCacheHit, out.MaintainedHit, prevVer, out.Version, body)
	}
	if !bytes.Contains(out.Tuples, []byte("r4")) {
		t.Fatalf("maintained result does not reflect the inserted fact: %s", out.Tuples)
	}

	// /core reports both cache layers.
	var core struct {
		CacheHit       bool `json:"cache_hit"`
		ResultCacheHit bool `json:"result_cache_hit"`
	}
	for i := 0; i < 2; i++ {
		status, body = doJSON(t, "POST", ts.URL+"/core", q)
		if status != http.StatusOK {
			t.Fatalf("core #%d: %d %s", i+1, status, body)
		}
	}
	if err := json.Unmarshal(body, &core); err != nil {
		t.Fatal(err)
	}
	if !core.CacheHit || !core.ResultCacheHit {
		t.Fatalf("second core: %s", body)
	}

	// /admin/cache exposes totals and per-instance occupancy.
	var stats struct {
		Enabled   bool  `json:"enabled"`
		Entries   int64 `json:"entries"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Instances []struct {
			ID         string `json:"id"`
			Generation uint64 `json:"generation"`
			Entries    int    `json:"entries"`
		} `json:"instances"`
	}
	status, body = doJSON(t, "GET", ts.URL+"/admin/cache", nil)
	if status != http.StatusOK {
		t.Fatalf("/admin/cache: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Enabled || stats.Entries == 0 || stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("/admin/cache stats: %s", body)
	}
	if len(stats.Instances) != 1 || stats.Instances[0].ID != id || stats.Instances[0].Generation != out.Version {
		t.Fatalf("/admin/cache per-instance: %s", body)
	}

	// The engine_result_cache_* family is exported.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"engine_result_cache_hits_total",
		"engine_result_cache_misses_total",
		"engine_result_cache_entries",
		"engine_result_cache_bytes",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestConcurrentHTTP drives the full stack concurrently: one instance,
// parallel query/core/ingest requests over real HTTP. Under -race this
// covers handler → engine → batcher interleavings end to end.
func TestConcurrentHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch i % 3 {
				case 0:
					st, b := doJSON(t, "POST", ts.URL+"/query", map[string]string{
						"instance": id, "query": "ans(x) :- R(x,y), R(y,x)",
					})
					if st != http.StatusOK {
						errs <- fmt.Sprintf("query: %d: %s", st, b)
					}
				case 1:
					st, b := doJSON(t, "POST", ts.URL+"/core", map[string]string{
						"instance": id, "query": "ans(x) :- R(x,y), R(y,x)",
					})
					if st != http.StatusOK {
						errs <- fmt.Sprintf("core: %d: %s", st, b)
					}
				case 2:
					st, b := doJSON(t, "POST", ts.URL+"/instances/"+id+"/tuples", map[string]any{
						"facts": []map[string]any{{
							"rel": "R", "tag": fmt.Sprintf("g%d_%d", g, i),
							"values": []string{fmt.Sprintf("v%d_%d", g, i), "a"},
						}},
					})
					if st != http.StatusOK {
						errs <- fmt.Sprintf("ingest: %d: %s", st, b)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestOversizedBody413 sends a JSON body past the request cap. The node
// must refuse it whole with 413 and a JSON error, not decode a truncated
// prefix and answer a misleading 400 parse error.
func TestOversizedBody413(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createPaperInstance(t, ts)
	big := strings.Repeat("a", cluster.MaxRequestBytes)
	for _, tc := range []struct{ path, body string }{
		{"/query", `{"instance":"` + id + `","query":"` + big + `"}`},
		{"/instances/" + id + "/tuples", `{"facts":"` + big + `"}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var errBody struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413: %.200s", tc.path, len(tc.body), resp.StatusCode, body)
		} else if err := json.Unmarshal(body, &errBody); err != nil || !strings.Contains(errBody.Error, "exceeds") {
			t.Errorf("POST %s: 413 body is not a JSON error naming the limit: %.200s", tc.path, body)
		}
	}
	// The cap refuses the request, not the connection or the instance.
	status, body := doJSON(t, "POST", ts.URL+"/query", map[string]string{"instance": id, "query": "ans(x) :- R(x,y)"})
	if status != http.StatusOK {
		t.Fatalf("small query after oversized ones: status %d: %s", status, body)
	}
}
