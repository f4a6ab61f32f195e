package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadExposition(t *testing.T, name string) Exposition {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// The testdata files were captured from a clustered provmind node and a
// provrouter in front of it, before and after the same /query was sent
// three times through the router: one miss forwarded to the node, then two
// router-cache hits, each revalidated with GET /gen/{id} on the node.
func TestScrapeNodeExposition(t *testing.T) {
	before := loadExposition(t, "node_before.prom")
	after := loadExposition(t, "node_after.prom")
	d := delta(before, after)

	if got := d["http_requests_total"]; got != 3 {
		t.Fatalf("http_requests_total delta = %v, want 3", got)
	}
	mean, n := histMean("http_query_seconds", d)
	if n != 1 || mean <= 0 || mean > 1 {
		t.Fatalf("http_query_seconds delta: mean %v over %v, want 1 observation", mean, n)
	}
	if _, n := histMean("http_generation_seconds", d); n != 2 {
		t.Fatalf("http_generation_seconds delta: %v observations, want 2", n)
	}
	if d[`http_query_seconds_bucket{le="+Inf"}`] != 1 {
		t.Fatalf("+Inf bucket delta = %v", d[`http_query_seconds_bucket{le="+Inf"}`])
	}
	// Gauges keep their level instead of becoming a difference.
	if d["engine_resident_bytes"] != after["engine_resident_bytes"] || d["engine_resident_bytes"] <= 0 {
		t.Fatalf("engine_resident_bytes = %v, want the after level %v", d["engine_resident_bytes"], after["engine_resident_bytes"])
	}
	if d["engine_instances"] != 1 {
		t.Fatalf("engine_instances = %v", d["engine_instances"])
	}
	hits := d["engine_result_cache_hits_total"]
	misses := d["engine_result_cache_misses_total"]
	if hits != 0 || misses != 1 {
		t.Fatalf("result cache hits/misses delta = %v/%v, want 0/1", hits, misses)
	}
}

func TestScrapeRouterExposition(t *testing.T) {
	before := loadExposition(t, "router_before.prom")
	after := loadExposition(t, "router_after.prom")
	d := delta(before, after)
	// A first request for a key is forwarded without a cache lookup, so it
	// counts as neither hit nor miss.
	if d["router_cache_hits_total"] != 2 || d["router_cache_misses_total"] != 0 {
		t.Fatalf("router cache hits/misses delta = %v/%v, want 2/0", d["router_cache_hits_total"], d["router_cache_misses_total"])
	}
	mean, n := histMean("router_request_seconds", d)
	if n != 3 || mean <= 0 {
		t.Fatalf("router_request_seconds: mean %v over %v", mean, n)
	}
	if d["cluster_nodes"] != 1 {
		t.Fatalf("cluster_nodes gauge = %v", d["cluster_nodes"])
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, in := range []string{"no_value\n", "x notanumber\n"} {
		if _, err := parseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("parsed %q", in)
		}
	}
	x, err := parseExposition(strings.NewReader("# TYPE a counter\na 3\n\nb_sum 1.5e-3\n"))
	if err != nil || x["a"] != 3 || math.Abs(x["b_sum"]-0.0015) > 1e-12 {
		t.Fatalf("parsed %v, %v", x, err)
	}
}

func TestProcessStatsOfSelf(t *testing.T) {
	rss, err := vmHWM(os.Getpid())
	if err != nil || rss <= 0 {
		t.Fatalf("VmHWM of self = %d, %v", rss, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a"), make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "b"), make([]byte, 24), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := dirBytes(dir); err != nil || n != 1024 {
		t.Fatalf("dirBytes = %d, %v", n, err)
	}
}
