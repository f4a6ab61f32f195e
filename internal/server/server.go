// Package server exposes the provenance engine as an HTTP/JSON API — the
// provmind service. Endpoints:
//
//	POST   /instances                create an instance (optional seed facts)
//	GET    /instances                list instances
//	GET    /instances/{id}           describe one instance
//	DELETE /instances/{id}           drop an instance
//	POST   /instances/{id}/tuples    batched tuple ingest
//	POST   /query                    evaluate with full provenance
//	POST   /core                     core provenance (cached p-minimal form)
//	GET    /core                     same, via ?instance= & ?q=
//	POST   /prob                     derivation probability (apps/prob)
//	POST   /trust                    trust cost / confidence (apps/trust)
//	POST   /deletion                 deletion propagation (apps/deletion)
//	GET    /gen/{id}                 instance generation (cluster cache token)
//	GET    /topology                 ring version + node health (clustered)
//	POST   /admin/snapshot           write durable snapshots (keep WAL)
//	POST   /admin/compact            snapshot + reset write-ahead logs
//	POST   /admin/evict              evict an instance to the cold tier
//	POST   /admin/adopt              adopt an instance blob from the shared tier
//	POST   /admin/release            release an instance for cluster handoff
//	GET    /admin/residency          resident/cold split, bytes, LRU ages
//	GET    /admin/cache              result-cache occupancy
//	GET    /metrics                  Prometheus text (or ?format=json)
//	GET    /healthz                  liveness + instance count
//
// All request and response bodies are JSON; errors are {"error": "..."}
// with a matching HTTP status.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"provmin/internal/cluster"
	"provmin/internal/db"
	"provmin/internal/engine"
	"provmin/internal/eval"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// Server routes HTTP requests to an engine.
type Server struct {
	eng *engine.Engine
	// topo is non-nil when this node is part of a cluster: it serves
	// GET /topology and arms the stale-ring request check.
	topo *cluster.Topology
	mux  *http.ServeMux
}

// New builds a Server over eng and registers all routes.
func New(eng *engine.Engine) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux()}
	s.route("POST /instances", "create_instance", s.handleCreateInstance)
	s.route("GET /instances", "list_instances", s.handleListInstances)
	s.route("GET /instances/{id}", "get_instance", s.handleGetInstance)
	s.route("DELETE /instances/{id}", "drop_instance", s.handleDropInstance)
	s.route("POST /instances/{id}/tuples", "ingest", s.handleIngest)
	s.route("POST /query", "query", s.handleQuery)
	s.route("POST /core", "core", s.handleCore)
	s.route("GET /core", "core", s.handleCoreGet)
	s.route("POST /prob", "prob", s.handleProb)
	s.route("POST /trust", "trust", s.handleTrust)
	s.route("POST /deletion", "deletion", s.handleDeletion)
	s.route("GET /gen/{id}", "generation", s.handleGeneration)
	s.route("GET /topology", "topology", s.handleTopology)
	s.route("POST /admin/snapshot", "snapshot", s.handleSnapshot)
	s.route("POST /admin/compact", "compact", s.handleCompact)
	s.route("POST /admin/evict", "evict", s.handleEvict)
	s.route("POST /admin/adopt", "adopt", s.handleAdopt)
	s.route("POST /admin/release", "release", s.handleRelease)
	s.route("GET /admin/residency", "residency", s.handleResidency)
	s.route("GET /admin/cache", "cache_stats", s.handleCacheStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// NewClustered builds a Server that also participates in a cluster: it
// serves GET /topology from topo and rejects requests stamped with a ring
// version other than its own (409), so a router holding a stale member
// list fails fast instead of reading from the wrong node.
func NewClustered(eng *engine.Engine, topo *cluster.Topology) *Server {
	s := New(eng)
	s.topo = topo
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers a handler wrapped with request counting and latency
// recording under http_<op>_* metric names.
func (s *Server) route(pattern, op string, h func(w http.ResponseWriter, r *http.Request) error) {
	reqs := s.eng.Metrics().Counter("http_requests_total")
	errs := s.eng.Metrics().Counter("http_errors_total")
	lat := s.eng.Metrics().Histogram("http_request_seconds")
	//lint:ignore provlint/metricsconst op is a bounded code-owned enumeration: one literal per route registration
	opLat := s.eng.Metrics().Histogram("http_" + op + "_seconds")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		r.Body = http.MaxBytesReader(w, r.Body, cluster.MaxRequestBytes)
		err := s.checkRing(r)
		if err == nil {
			err = h(w, r)
		}
		if err != nil {
			errs.Inc()
			writeError(w, err)
		}
		d := time.Since(start)
		lat.Observe(d)
		opLat.Observe(d)
	})
}

// checkRing rejects requests whose X-Provmind-Ring header names a ring
// version other than this node's. Nil (pass) when the node is unclustered
// or the request carries no stamp, so plain curl keeps working.
func (s *Server) checkRing(r *http.Request) error {
	if s.topo == nil {
		return nil
	}
	return cluster.CheckRing(r, s.topo.Ring().Version())
}

// apiError carries an HTTP status with an error.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var (
		ae  *apiError
		sre *cluster.StaleRingError
	)
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.As(err, &sre):
		// The router's member list disagrees with ours: 409 tells it to
		// refresh /topology and re-route rather than trust this node.
		status = http.StatusConflict
	case errors.Is(err, engine.ErrBorrowed):
		// Writes to a borrowed (read-only replica) copy conflict with the
		// routing invariant that the ring owner takes all writes.
		status = http.StatusConflict
	case errors.Is(err, engine.ErrInstanceExists):
		status = http.StatusConflict
	case errors.Is(err, engine.ErrBadInstanceID):
		status = http.StatusBadRequest
	case errors.Is(err, engine.ErrClosed):
		// Engine shut down while the HTTP server drains: availability,
		// not client fault — tell well-behaved clients to retry.
		status = http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrNoTiering):
		// The operator asked an untiered deployment to evict: a
		// configuration conflict, like ErrNoPersistence on /admin/snapshot.
		status = http.StatusConflict
	case errors.Is(err, engine.ErrUnknownInstance):
		// Every endpoint that names an instance — /query, /core, /prob,
		// /trust, /deletion, ingest — must answer 404 for an unknown id,
		// never 500: the sentinel makes that hold no matter how deeply the
		// engine wraps the lookup failure.
		status = http.StatusNotFound
	case strings.Contains(err.Error(), "no such instance"):
		// Message-based fallback for errors that crossed a boundary that
		// dropped the wrap chain.
		status = http.StatusNotFound
	case strings.Contains(err.Error(), "arity"):
		// Arity mismatches surface from eval/db when a query or fact
		// disagrees with the instance schema — client errors, not ours.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// decodeJSON reads a JSON body into v, rejecting unknown fields so typos in
// request payloads fail loudly instead of silently evaluating defaults. A
// body over cluster.MaxRequestBytes (route caps every body) is a 413.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

// parseUnion parses query text, mapping failures to 400s.
func parseUnion(text string) (*query.UCQ, error) {
	if strings.TrimSpace(text) == "" {
		return nil, badRequest("missing query")
	}
	u, err := query.ParseUnion(text)
	if err != nil {
		return nil, badRequest("parse query: %v", err)
	}
	return u, nil
}

// tupleOut is one annotated output tuple on the wire.
type tupleOut struct {
	Tuple      []string `json:"tuple"`
	Provenance string   `json:"provenance"`
}

func resultOut(res *eval.Result) []tupleOut {
	out := make([]tupleOut, 0, res.Len())
	for _, t := range res.Tuples() {
		out = append(out, tupleOut{Tuple: t.Tuple, Provenance: t.Prov.String()})
	}
	return out
}

func tuplesOut(ts []db.Tuple) [][]string {
	out := make([][]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, t)
	}
	return out
}

// --- instance management ---

type createInstanceReq struct {
	// ID pins the instance id instead of letting the engine generate one.
	// The cluster router names instances itself so every node (and the
	// ring) agrees on the id before the instance exists anywhere.
	ID string `json:"id,omitempty"`
	// Initial seeds the instance from db text format, one fact per line:
	// "<relation> <tag> <value>...".
	Initial string `json:"initial,omitempty"`
	// Facts seeds the instance from structured facts.
	Facts []engine.Fact `json:"facts,omitempty"`
}

func (s *Server) handleCreateInstance(w http.ResponseWriter, r *http.Request) error {
	var req createInstanceReq
	if r.ContentLength != 0 {
		if err := decodeJSON(r, &req); err != nil {
			return err
		}
	}
	var (
		info engine.InstanceInfo
		err  error
	)
	if req.ID != "" {
		info, err = s.eng.CreateInstanceWithID(req.ID, req.Initial)
	} else {
		info, err = s.eng.CreateInstance(req.Initial)
	}
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrClosed),
			errors.Is(err, engine.ErrInstanceExists),
			errors.Is(err, engine.ErrBadInstanceID):
			return err // mapped to 503 / 409 / 400 by writeError
		case errors.Is(err, engine.ErrInvalidSeed):
			return badRequest("%v", err)
		default:
			// A durable-storage failure, not a malformed request: 500, so
			// clients retry instead of "fixing" a request that was fine.
			// When the create was applied but not confirmed durable, the
			// engine still returns the live instance's info — name it, so
			// the client can find (and drop or reuse) the orphan instead
			// of blindly retrying into duplicates.
			if info.ID != "" {
				return &apiError{status: http.StatusInternalServerError,
					msg: fmt.Sprintf("%v (instance %s is live but its creation is not confirmed durable)", err, info.ID)}
			}
			return err
		}
	}
	if len(req.Facts) > 0 {
		if err := s.eng.Ingest(info.ID, req.Facts); err != nil {
			_, _ = s.eng.DropInstance(info.ID)
			return badRequest("seed facts: %v", err)
		}
		info, _ = s.eng.Instance(info.ID)
	}
	writeJSON(w, http.StatusCreated, info)
	return nil
}

func (s *Server) handleListInstances(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{"instances": s.eng.Instances()})
	return nil
}

func (s *Server) handleGetInstance(w http.ResponseWriter, r *http.Request) error {
	info, ok := s.eng.Instance(r.PathValue("id"))
	if !ok {
		return notFound("no such instance %q", r.PathValue("id"))
	}
	writeJSON(w, http.StatusOK, info)
	return nil
}

func (s *Server) handleDropInstance(w http.ResponseWriter, r *http.Request) error {
	dropped, err := s.eng.DropInstance(r.PathValue("id"))
	if err != nil {
		// A WAL failure, not a missing instance: 500, so the client never
		// mistakes a live (or non-durably-dropped) instance for deleted.
		return err
	}
	if !dropped {
		return notFound("no such instance %q", r.PathValue("id"))
	}
	writeJSON(w, http.StatusOK, map[string]bool{"dropped": true})
	return nil
}

type ingestReq struct {
	Facts []engine.Fact `json:"facts"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	var req ingestReq
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Facts) == 0 {
		return badRequest("no facts to ingest")
	}
	id := r.PathValue("id")
	if err := s.eng.Ingest(id, req.Facts); err != nil {
		return err
	}
	info, _ := s.eng.Instance(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested": len(req.Facts),
		"instance": info,
	})
	return nil
}

// --- query & core ---

type queryReq struct {
	Instance string `json:"instance"`
	Query    string `json:"query"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req queryReq
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	u, err := parseUnion(req.Query)
	if err != nil {
		return err
	}
	out, err := s.eng.Query(r.Context(), req.Instance, u)
	if err != nil {
		return err
	}
	// The generation header lets the cluster router cache this response
	// without a second round trip; it must go out before the status line.
	w.Header().Set(cluster.HeaderGeneration, strconv.FormatUint(out.Version, 10))
	writeJSON(w, http.StatusOK, map[string]any{
		"instance":         req.Instance,
		"version":          out.Version,
		"class":            query.ClassOfUnion(u).String(),
		"result_cache_hit": out.CacheHit,
		"maintained_hit":   out.MaintainedHit,
		"tuples":           resultOut(out.Result),
	})
	return nil
}

type coreReq struct {
	Instance string `json:"instance"`
	Query    string `json:"query"`
	// Direct bypasses the p-minimal query and computes cores from the
	// provenance polynomials alone (Theorem 5.1).
	Direct bool `json:"direct,omitempty"`
}

func (s *Server) handleCore(w http.ResponseWriter, r *http.Request) error {
	var req coreReq
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	return s.serveCore(w, r, req)
}

// handleCoreGet serves GET /core?instance=i1&q=... for quick curl use.
func (s *Server) handleCoreGet(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	return s.serveCore(w, r, coreReq{
		Instance: q.Get("instance"),
		Query:    q.Get("q"),
		Direct:   q.Get("direct") == "true",
	})
}

func (s *Server) serveCore(w http.ResponseWriter, r *http.Request, req coreReq) error {
	u, err := parseUnion(req.Query)
	if err != nil {
		return err
	}
	if req.Direct {
		res, err := s.eng.CoreDirect(r.Context(), req.Instance, u)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"instance": req.Instance,
			"direct":   true,
			"tuples":   resultOut(res),
		})
		return nil
	}
	out, err := s.eng.Core(r.Context(), req.Instance, u)
	if err != nil {
		return err
	}
	w.Header().Set(cluster.HeaderGeneration, strconv.FormatUint(out.Version, 10))
	writeJSON(w, http.StatusOK, map[string]any{
		"instance":         req.Instance,
		"version":          out.Version,
		"cache_hit":        out.CacheHit,
		"result_cache_hit": out.ResultCacheHit,
		"maintained_hit":   out.MaintainedHit,
		"minimized":        out.Minimized.String(),
		"tuples":           resultOut(out.Result),
	})
	return nil
}

// --- provenance applications ---

type probReq struct {
	Instance  string             `json:"instance"`
	Query     string             `json:"query"`
	Tuple     []string           `json:"tuple"`
	Probs     map[string]float64 `json:"probs,omitempty"`
	Default   float64            `json:"default,omitempty"`
	UseCore   bool               `json:"use_core,omitempty"`
	MCSamples int                `json:"mc_samples,omitempty"`
	Seed      int64              `json:"seed,omitempty"`
}

func (s *Server) handleProb(w http.ResponseWriter, r *http.Request) error {
	var req probReq
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	u, err := parseUnion(req.Query)
	if err != nil {
		return err
	}
	p, err := s.eng.Probability(r.Context(), req.Instance, u, db.Tuple(req.Tuple), engine.ProbOpts{
		Probs:     req.Probs,
		Default:   req.Default,
		UseCore:   req.UseCore,
		MCSamples: req.MCSamples,
		Seed:      req.Seed,
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"probability": p})
	return nil
}

type trustReq struct {
	Instance string             `json:"instance"`
	Query    string             `json:"query"`
	Tuple    []string           `json:"tuple"`
	Values   map[string]float64 `json:"values,omitempty"`
	Default  float64            `json:"default,omitempty"`
	// Mode is "cost" (tropical, default) or "confidence" (Viterbi).
	Mode    string `json:"mode,omitempty"`
	UseCore bool   `json:"use_core,omitempty"`
}

func (s *Server) handleTrust(w http.ResponseWriter, r *http.Request) error {
	var req trustReq
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	u, err := parseUnion(req.Query)
	if err != nil {
		return err
	}
	switch req.Mode {
	case "", "cost", "confidence":
	default:
		return badRequest("mode must be \"cost\" or \"confidence\", got %q", req.Mode)
	}
	v, err := s.eng.Trust(r.Context(), req.Instance, u, db.Tuple(req.Tuple), engine.TrustOpts{
		Values:     req.Values,
		Default:    req.Default,
		Confidence: req.Mode == "confidence",
		UseCore:    req.UseCore,
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"mode": modeName(req.Mode), "value": v})
	return nil
}

func modeName(m string) string {
	if m == "" {
		return "cost"
	}
	return m
}

type deletionReq struct {
	Instance string   `json:"instance"`
	Query    string   `json:"query"`
	Deleted  []string `json:"deleted"`
}

func (s *Server) handleDeletion(w http.ResponseWriter, r *http.Request) error {
	var req deletionReq
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	u, err := parseUnion(req.Query)
	if err != nil {
		return err
	}
	out, err := s.eng.Deletion(r.Context(), req.Instance, u, req.Deleted)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"survivors": tuplesOut(out.Survivors),
		"lost":      tuplesOut(out.Lost),
	})
	return nil
}

// --- cluster endpoints ---

// handleGeneration serves GET /gen/{id}: the instance's generation counter,
// the coherence token the cluster router validates cached results against.
// Faults cold instances in rather than trusting a possibly-stale stub
// version — correctness of cache validation beats keeping the tier cold.
func (s *Server) handleGeneration(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	gen, err := s.eng.Generation(id)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"instance": id, "generation": gen})
	return nil
}

// handleTopology serves GET /topology: ring version plus the node list with
// health, the router's source of truth after a 409 stale-ring rejection.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) error {
	if s.topo == nil {
		return &apiError{status: http.StatusConflict, msg: "this node is not clustered"}
	}
	writeJSON(w, http.StatusOK, s.topo.Info())
	return nil
}

type handoffReq struct {
	Instance string `json:"instance"`
}

func decodeHandoff(r *http.Request) (string, error) {
	var req handoffReq
	if err := decodeJSON(r, &req); err != nil {
		return "", err
	}
	if req.Instance == "" {
		return "", badRequest("missing instance")
	}
	return req.Instance, nil
}

// handleRelease serves POST /admin/release: snapshot the instance to the
// shared cold tier and forget it locally, the donor half of a rebalance.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) error {
	id, err := decodeHandoff(r)
	if err != nil {
		return err
	}
	if err := s.eng.ReleaseInstance(r.Context(), id); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"released": id})
	return nil
}

// handleAdopt serves POST /admin/adopt: register a released blob from the
// shared cold tier as a local cold instance, the recipient half.
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) error {
	id, err := decodeHandoff(r)
	if err != nil {
		return err
	}
	if err := s.eng.AdoptInstance(r.Context(), id); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"adopted": id})
	return nil
}

// --- operational endpoints ---

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	return s.serveSnapshot(w, false)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) error {
	return s.serveSnapshot(w, true)
}

func (s *Server) serveSnapshot(w http.ResponseWriter, compact bool) error {
	var (
		stats persist.SnapshotStats
		err   error
	)
	if compact {
		stats, err = s.eng.Compact()
	} else {
		stats, err = s.eng.Snapshot()
	}
	switch {
	case errors.Is(err, engine.ErrNoPersistence):
		// The operator asked a memory-only deployment to persist: a
		// configuration conflict, not a malformed request.
		return &apiError{status: http.StatusConflict, msg: err.Error()}
	case err != nil:
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":           stats.Shards,
		"instances":        stats.Instances,
		"bytes":            stats.Bytes,
		"compacted":        stats.Compacted,
		"duration_seconds": stats.Duration.Seconds(),
	})
	return nil
}

type evictReq struct {
	Instance string `json:"instance"`
}

// handleEvict serves POST /admin/evict: snapshot one instance to the cold
// backend and release its RAM copy. 409 without a snapshot backend, 404
// for an unknown id; evicting an already-cold instance succeeds idempotently.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) error {
	var req evictReq
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if req.Instance == "" {
		return badRequest("missing instance")
	}
	if err := s.eng.EvictInstance(req.Instance); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"evicted": req.Instance})
	return nil
}

// handleResidency serves GET /admin/residency: the resident/cold split with
// per-instance bytes and idle ages. Deliberately side-effect free — it
// never faults anything in, so operators (and the crash tests) can observe
// coldness without destroying it.
func (s *Server) handleResidency(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, s.eng.Residency())
	return nil
}

// handleCacheStats serves GET /admin/cache: result-cache totals, the
// configured per-instance bounds, and per-instance occupancy with the
// generation each instance is at.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, s.eng.ResultCacheStatsNow())
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.eng.Metrics().Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.eng.Metrics().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"instances": s.eng.InstanceCount(),
		"durable":   s.eng.Durable(),
	})
}
