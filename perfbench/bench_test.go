package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"github.com/datacase/datacase/internal/compliance"
)

func TestModelPredictions(t *testing.T) {
	m := newModel()
	m.add("a1", &row{subject: "s", payload: []byte("p1"), purposes: []string{"billing"}, ttl: 5})
	m.add("a2", &row{subject: "s", payload: []byte("p2"), purposes: []string{"billing", "service"}})
	m.add("d1", &row{subject: "s", payload: []byte("sum"), parent: "a1"})
	m.add("b1", &row{subject: "t", payload: []byte("q"), purposes: []string{"service"}})

	if got := m.scanResult("billing", 16); got != 2 {
		t.Fatalf("scan billing: %d, want 2", got)
	}
	if got := m.scanResult("billing", 1); got != 1 {
		t.Fatalf("scan billing limit 1: %d, want 1", got)
	}
	m.updateMeta("b1", "billing", 9)
	m.updateMeta("b1", "billing", 10) // a purpose already held is not added twice
	if got := m.scanResult("billing", 16); got != 3 {
		t.Fatalf("scan after update-meta: %d, want 3", got)
	}
	if err := m.checkMeta("b1", compliance.Metadata{Subject: "t", TTL: 10, Purposes: []string{"service", "billing"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.checkMeta("b1", compliance.Metadata{Subject: "t", TTL: 9, Purposes: []string{"service", "billing"}}); err == nil {
		t.Fatal("a stale TTL passed the check")
	}

	// The derived record goes with its parent's cascade.
	if direct, cascaded := m.eraseResult("s"); direct != 2 || cascaded != 1 {
		t.Fatalf("erase s: direct %d cascaded %d, want 2 and 1", direct, cascaded)
	}
	sar := []compliance.SubjectRecord{{Key: "a1", Payload: []byte("p1")}, {Key: "a2", Payload: []byte("p2")}, {Key: "d1", Payload: []byte("sum")}}
	if err := m.checkSAR("s", sar); err != nil {
		t.Fatal(err)
	}
	sar[2].Payload = []byte("other")
	if err := m.checkSAR("s", sar); err == nil {
		t.Fatal("a wrong payload passed the SAR check")
	}
	if err := m.checkSAR("s", []compliance.SubjectRecord{sar[0], sar[0], sar[1]}); err == nil {
		t.Fatal("a repeated record passed the SAR check")
	}

	m.remove("a1")
	if direct, cascaded := m.eraseResult("s"); direct != 2 || cascaded != 0 {
		t.Fatalf("erase s without the parent: direct %d cascaded %d, want 2 and 0", direct, cascaded)
	}
	if m.live() != 3 || m.scanResult("billing", 16) != 2 {
		t.Fatalf("after remove: live %d, billing %d", m.live(), m.scanResult("billing", 16))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if k := m.pick(rng); m.rows[k] == nil {
			t.Fatalf("pick drew %s, which is not live", k)
		}
	}
}

func TestMixIsExact(t *testing.T) {
	kinds := mix(rand.New(rand.NewSource(7)), 1000, 25, 25, 50)
	counts := map[int]int{}
	for _, k := range kinds {
		counts[k]++
	}
	if len(kinds) != 1000 || counts[0] != 250 || counts[1] != 250 || counts[2] != 500 {
		t.Fatalf("mix counts %v over %d", counts, len(kinds))
	}
}

func TestNormalisation(t *testing.T) {
	if got := perOp(300, 200); got != 1.5 {
		t.Fatalf("perOp: %v", got)
	}
	if got := perKop(3, 2000); got != 1.5 {
		t.Fatalf("perKop: %v", got)
	}
	if got := perOp(5, 0); got != 0 {
		t.Fatalf("perOp over no operations: %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median: %v", got)
	}
	if got := midMean([]float64{100, 4, 1, 2, 3, 5, 6, 0}); got != 3.5 {
		t.Fatalf("interquartile mean: %v", got)
	}
	layer := layerOf(round{ops: 4000, l0: layerSample{lookups: 100}, l1: layerSample{lookups: 8100},
		sc: scenarioStats{harnessLookups: 4000}})
	if got := layer["storage.lookups_per_op"]; got != 1 {
		t.Fatalf("lookups per op without the benchmark's own: %v", got)
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is declared but not built", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, specs []metric) {
		values := map[string]float64{}
		for _, m := range specs {
			values[m.name] = 1
		}
		var out bytes.Buffer
		if err := report(&out, specs, values, true, 1, 0); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("%s: %d metrics printed, %d declared", kind, len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s: %s (%s) declared, printed %+v", kind, d.Name, d.Unit, got)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
