package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"provmin/internal/db"
	"provmin/internal/eval"
	"provmin/internal/query"
)

// streamBytes serializes a workload's instances, warm-up and first n
// stream ops exactly as the servers would receive them.
func streamBytes(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i, id := range w.IDs {
		fmt.Fprintf(&b, "instance %s\n%s\n", id, w.Texts[i])
	}
	ops := append([]Op{}, w.Warm...)
	for i := 0; i < n; i++ {
		ops = append(ops, w.Next())
	}
	for _, op := range ops {
		fmt.Fprintf(&b, "%s POST %s %s\n", op.Kind, op.Path, op.Body)
	}
	return b.Bytes()
}

func TestStreamIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := streamBytes(t, name, 7, 500)
			b := streamBytes(t, name, 7, 500)
			if !bytes.Equal(a, b) {
				t.Fatal("one seed produced two different streams")
			}
			if c := streamBytes(t, name, 8, 500); bytes.Equal(a, c) {
				t.Fatal("seeds 7 and 8 produced the same stream")
			}
		})
	}
}

func TestArrivalsAreSeeded(t *testing.T) {
	a := arrivals(3, 100, 5e9)
	b := arrivals(3, 100, 5e9)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("one seed produced two arrival schedules")
	}
	if fmt.Sprint(a) == fmt.Sprint(arrivals(4, 100, 5e9)) {
		t.Fatal("seeds 3 and 4 produced the same arrival schedule")
	}
	if n := len(a); n < 400 || n > 600 {
		t.Fatalf("%d arrivals in 5s at 100/s", n)
	}
}

func TestMinprovFreshNeverRepeatsAQuery(t *testing.T) {
	w, err := newWorkload("minprov-fresh", 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		op := w.Next()
		if op.Kind == "direct" {
			continue
		}
		if seen[string(op.Body)] {
			t.Fatalf("op %d repeats a /core body: %s", i, op.Body)
		}
		seen[string(op.Body)] = true
	}
}

func TestMinprovFreshInstanceIsARenaming(t *testing.T) {
	size := func(seed int64) (string, []int) {
		w, err := newWorkload("minprov-fresh", seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.ParseInstance(w.Texts[0])
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for _, text := range w.Queries[:40] {
			res, err := eval.EvalUCQ(query.MustParseUnion(text), d)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, res.Len(), res.TotalProvenanceSize())
		}
		return w.Texts[0], sizes
	}
	a, sa := size(1)
	b, sb := size(2)
	if a == b {
		t.Fatal("seeds 1 and 2 produced the same instance")
	}
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Fatalf("result sizes differ between seeds: %v vs %v", sa, sb)
	}
}

func TestWindowRates(t *testing.T) {
	p := &phase{elapsed: 1600 * time.Millisecond, ok: 5}
	for _, ms := range []int{100, 200, 600, 1200, 1550} {
		p.doneAt = append(p.doneAt, time.Duration(ms)*time.Millisecond)
	}
	// Three whole 500 ms windows; the completion at 1550 ms is in none.
	if got := fmt.Sprint(p.windowRates()); got != "[4 2 2]" {
		t.Fatalf("windowRates = %s, want [4 2 2]", got)
	}
	short := &phase{elapsed: 250 * time.Millisecond, ok: 5}
	if got := short.windowRates(); len(got) != 1 || got[0] != 20 {
		t.Fatalf("short phase: windowRates = %v, want [20]", got)
	}
}
