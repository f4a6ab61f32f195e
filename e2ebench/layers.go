package main

// layerInputs is what the untraced run measured, from which the per-layer
// metrics are derived: the program's own /metrics before and after the
// measured phases, and the load generator's records.
type layerInputs struct {
	w             *Workload
	dep           *deployment
	before, after []Exposition // nodes first, then the router
	open, closed  *phase
	respBytes     int64
	attempted     int
	failed        int
	facts         int // initial plus acknowledged ingested facts
	rec           *recovery
}

func (l *layerInputs) metrics() []metric {
	nn := len(l.dep.nodes)
	var nodes []Exposition
	for i := 0; i < nn; i++ {
		nodes = append(nodes, delta(l.before[i], l.after[i]))
	}
	var router Exposition
	if l.dep.router != nil {
		router = delta(l.before[nn], l.after[nn])
	}
	ms := func(name string) (float64, int) {
		mean, n := histMean(name, nodes...)
		return mean * 1e3, int(n)
	}
	sum := func(name string) float64 { return sumSeries(name, nodes...) }
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		out = append(out, metric{name, v, unit, n})
	}

	// Load-generator validity.
	sent, ok := 0, l.open.ok+l.closed.ok
	reads, ingestFacts := 0, 0
	var respReads int
	for _, p := range []*phase{l.open, l.closed} {
		sent += len(p.recs)
		for _, r := range p.recs {
			if r.op.IsWrite() {
				if r.err == "" {
					ingestFacts += len(r.op.Facts)
				}
			} else {
				reads++
				if r.err == "" {
					respReads++
				}
			}
		}
	}
	add("loadgen.lag_p99_ms", quantile(l.open.lagMs, 0.99), "ms", len(l.open.lagMs))
	add("loadgen.sent", float64(sent), "count", sent)
	add("loadgen.ok", float64(ok), "count", sent)
	add("loadgen.failed", float64(sent-ok), "count", sent)
	add("failed_ratio", ratio(float64(l.failed), float64(l.attempted)), "ratio", l.attempted)

	// End-to-end numbers that BENCHMARK.json does not gate: read_p99_ms
	// swings too much from run to run on a small shared machine, and the
	// others exist only on some workloads (zero elsewhere).
	add("read_p99_ms", quantile(l.open.readMs, 0.99), "ms", len(l.open.readMs))
	add("write_p50_ms", quantile(l.open.writeMs, 0.5), "ms", len(l.open.writeMs))
	add("write_p99_ms", quantile(l.open.writeMs, 0.99), "ms", len(l.open.writeMs))
	add("recovery_s", l.rec.seconds, "s", len(l.rec.recs))
	add("disk_bytes_per_fact", ratio(float64(l.rec.diskBytes), float64(l.facts)), "B", l.facts)

	// cluster: router hop, router cache, upstream fan-out. The router
	// counts a miss only when it looked a key up, and the first request for
	// a key is forwarded without a lookup, so ratios are over routed reads.
	var hop, hits, stale, upstream float64
	var routed int
	if router != nil {
		rMean, rn := histMean("router_request_seconds", router)
		nMean, _ := histMean("http_request_seconds", nodes...)
		hop, routed = (rMean-nMean)*1e3, int(rn)
		hits = ratio(router["router_cache_hits_total"], float64(reads))
		stale = ratio(router["router_cache_stale_total"], float64(reads))
		upstream = ratio(sum("http_requests_total")-sum("http_ingest_seconds_count"), float64(reads))
	}
	add("cluster.hop_ms", hop, "ms", routed)
	add("cluster.cache_hit_ratio", hits, "ratio", routed)
	add("cluster.cache_stale_ratio", stale, "ratio", routed)
	add("cluster.upstream_per_read", upstream, "count", routed)

	// server: per-op means and response size.
	add("server.resp_kb", ratio(float64(l.respBytes), float64(respReads))/1024, "KB", respReads)
	for _, op := range []string{"query", "core", "ingest", "prob", "trust", "deletion"} {
		v, n := ms("http_" + op + "_seconds")
		add("server.op."+op+"_ms", v, "ms", n)
	}

	// engine: queue wait, cache outcomes, batching and maintenance.
	v, n := ms("engine_queue_wait_seconds")
	add("engine.queue_wait_ms", v, "ms", n)
	minLookups := sum("engine_cache_hits_total") + sum("engine_cache_misses_total")
	add("engine.mincache_hit_ratio", ratio(sum("engine_cache_hits_total"), minLookups), "ratio", int(minLookups))
	resLookups := sum("engine_result_cache_hits_total") + sum("engine_result_cache_misses_total")
	add("engine.result_hit_ratio", ratio(sum("engine_result_cache_hits_total"), resLookups), "ratio", int(resLookups))
	ingests := sum("http_ingest_seconds_count")
	walRecords := sum("persist_wal_records_total")
	add("engine.batch_facts", ratio(sum("engine_ingest_facts_total"), walRecords), "count", int(walRecords))
	add("engine.promotions_per_ingest", ratio(sum("engine_result_cache_promotions_total"), ingests), "count", int(ingests))

	// minimize: MinProv runs and their output size.
	v, n = ms("engine_minprov_seconds")
	add("minimize.minprov_ms", v, "ms", n)
	add("minimize.calls", sum("engine_minprov_seconds_count"), "count", n)
	adj, cores := 0, 0
	for _, p := range []*phase{l.open, l.closed} {
		for _, r := range p.recs {
			if r.adjuncts > 0 {
				adj += r.adjuncts
				cores++
			}
		}
	}
	add("minimize.adjuncts_out", ratio(float64(adj), float64(cores)), "count", cores)

	// eval: full and delta evaluation.
	v, n = ms("engine_eval_seconds")
	add("eval.eval_ms", v, "ms", n)
	add("eval.busy_s", sum("engine_eval_seconds_sum"), "s", n)
	v, n = ms("engine_delta_eval_seconds")
	add("eval.delta_ms", v, "ms", n)

	// db: resident footprint and symbol table.
	add("db.resident_bytes_per_fact", ratio(sum("engine_resident_bytes"), float64(l.facts)), "B", l.facts)
	var symbols float64
	for _, x := range l.after[:nn] {
		symbols += x["engine_interned_symbols_total"]
	}
	add("db.symbols", symbols, "count", nn)

	// persist: fsync and WAL volume per ingest, replay on restart.
	add("persist.fsyncs_per_ingest", ratio(sum("persist_wal_fsyncs_total"), ingests), "count", int(ingests))
	add("persist.wal_bytes_per_fact", ratio(sum("persist_wal_bytes_total"), float64(ingestFacts)), "B", ingestFacts)
	add("persist.replay_ms", l.rec.replayMs, "ms", len(l.rec.recs))

	// tier: fault-ins and evictions.
	add("tier.faultins_per_kread", ratio(sum("engine_faultins_total"), float64(reads)/1000), "count", reads)
	v, n = ms("engine_faultin_seconds")
	add("tier.faultin_ms", v, "ms", n)
	add("tier.evictions", sum("engine_evictions_total"), "count", int(sum("engine_evictions_total")))
	return out
}

// totalFacts counts initial facts plus acknowledged ingested facts.
func (c *Checker) totalFacts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i, d := range c.base {
		n += d.NumTuples()
		for _, f := range c.acks[i] {
			n += len(f)
		}
	}
	return n
}
