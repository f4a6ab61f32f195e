package main

import (
	"bytes"
	"strings"
	"testing"

	"provmin/internal/db"
	"provmin/internal/eval"
	"provmin/internal/minimize"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// coreBody renders a /core response the way the server does, computed
// here without the checker.
func coreBody(t *testing.T, text string, d *db.Instance, version uint64) []byte {
	t.Helper()
	res, err := eval.EvalUCQ(minimize.MinProv(query.MustParseUnion(text)), d)
	if err != nil {
		t.Fatal(err)
	}
	out := []tupleOut{}
	for _, tp := range res.Tuples() {
		out = append(out, tupleOut{Tuple: tp.Tuple, Provenance: tp.Prov.String()})
	}
	return mustJSON(map[string]any{"instance": "x", "version": version, "cache_hit": false, "tuples": out})
}

func readRecord(t *testing.T, op *Op, body []byte, floor, ceil uint64) *record {
	t.Helper()
	rec := &record{op: op, floor: floor, ceil: ceil}
	if err := parseRead(rec, body); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCheckerCatchesCorruptedResponses(t *testing.T) {
	w, err := newWorkload("ingest-durable", 1)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(w)
	if err != nil {
		t.Fatal(err)
	}
	const v0 = 1
	for i := range chk.v0 {
		chk.v0[i] = v0
	}
	// One acknowledged ingest takes instance 0 to version v0+1.
	ingest := w.finish(Op{Kind: "ingest", Inst: 0, Facts: []persist.Fact{
		{Rel: "R", Tag: "w1", Values: []string{"d0", "d1"}},
		{Rel: "R", Tag: "w2", Values: []string{"d1", "d0"}},
	}}, "")
	ack := &record{op: &ingest, version: v0 + 1, hasVersion: true}
	after, _ := db.ParseInstance(w.Texts[0])
	for _, f := range ingest.Facts {
		if err := persist.ApplyFact(after, f); err != nil {
			t.Fatal(err)
		}
	}
	read := w.finish(Op{Kind: "core", Inst: 0, Q: 0}, w.Queries[0])
	good := coreBody(t, w.Queries[0], after, v0+1)

	if bad := chk.verify([]*record{ack, readRecord(t, &read, good, v0+1, v0+1)}, 2); len(bad) != 0 {
		t.Fatalf("correct response flagged: %v", bad)
	}

	// A provenance polynomial altered in transit.
	corrupt := bytes.Replace(good, []byte(`"provenance":"`), []byte(`"provenance":"w9*`), 1)
	if bytes.Equal(corrupt, good) {
		t.Fatal("test response has no provenance to corrupt")
	}
	if bad := chk.verify([]*record{ack, readRecord(t, &read, corrupt, v0+1, v0+1)}, 2); len(bad) != 1 || !strings.Contains(bad[0], "differs from the oracle") {
		t.Fatalf("corrupted provenance not caught: %v", bad)
	}

	// A read served at a version older than an acknowledged ingest.
	stale := coreBody(t, w.Queries[0], after, v0)
	if bad := chk.verify([]*record{ack, readRecord(t, &read, stale, v0+1, v0+1)}, 2); len(bad) != 1 || !strings.Contains(bad[0], "older than acknowledged") {
		t.Fatalf("stale version not caught: %v", bad)
	}

	// A version no acknowledged ingest produced.
	ahead := coreBody(t, w.Queries[0], after, v0+2)
	if bad := chk.verify([]*record{ack, readRecord(t, &read, ahead, v0, v0+2)}, 2); len(bad) != 1 || !strings.Contains(bad[0], "no acknowledged ingest") {
		t.Fatalf("unacknowledged version not caught: %v", bad)
	}
}

func TestCheckerCatchesDirectMismatch(t *testing.T) {
	w, err := newWorkload("minprov-fresh", 1)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(w)
	if err != nil {
		t.Fatal(err)
	}
	core := w.Next()
	direct := core
	direct.Kind = "direct"
	d, _ := db.ParseInstance(w.Texts[0])
	good := coreBody(t, w.Queries[core.Q], d, 0)
	if bad := chk.verify([]*record{readRecord(t, &core, good, 0, 0), readRecord(t, &direct, good, 0, 0)}, 2); len(bad) != 0 {
		t.Fatalf("matching pair flagged: %v", bad)
	}
	// The direct (Theorem 5.1) answer for a different query: it matches
	// neither the oracle nor its /core twin.
	other := coreBody(t, "ans(x) :- R1(x,y)", d, 0)
	bad := chk.verify([]*record{readRecord(t, &core, good, 0, 0), readRecord(t, &direct, other, 0, 0)}, 2)
	if len(bad) != 2 || !strings.Contains(strings.Join(bad, "\n"), "direct=true core differs") {
		t.Fatalf("direct mismatch not caught: %v", bad)
	}
}
