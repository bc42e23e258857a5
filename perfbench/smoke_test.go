package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that the run is correct and reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, seconds: 0.4, traced: traced, size: 0, drivers: 2, commit: "test"}
			var out bytes.Buffer
			res, err := runWorkload(sp, o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					sp.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v", sp.name, traced, d.name, m)
				}
			}
		}
	}
}

// TestRunOutput checks the command-line contract: the last line is the
// JSON result, and a bad flag exits 2 without one.
func TestRunOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "churn", "--seed", "3", "--seconds", "0.3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "env gomaxprocs=") || !strings.Contains(lines[0], "seed=3") {
		t.Errorf("first line %q does not record the environment", lines[0])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.name]; m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, m.Value)
		}
	}
	out.Reset()
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() > 0 && strings.Contains(out.String(), "{") {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

func TestServeReplay(t *testing.T) {
	cases := []struct {
		kind                    tenantKind
		requests, admit, denied int64
		evicted                 bool
	}{
		{kindCollect, 9, 36, 0, false},
		{kindFail, 3, 12, 0, false},
		{kindFail, 4, 16, 0, false},
		{kindFail, 7, 16, 3, false},
		{kindEvict, 4, 16, 0, false},
		{kindEvict, 5, 16, 0, true},
	}
	for _, c := range cases {
		a, d, e := replay(c.kind, c.requests)
		if a != c.admit || d != c.denied || e != c.evicted {
			t.Errorf("replay(%d, %d) = %d/%d/%v, want %d/%d/%v", c.kind, c.requests, a, d, e, c.admit, c.denied, c.evicted)
		}
	}
}

func TestBacklog(t *testing.T) {
	steady := make([]float64, 400)
	for i := range steady {
		steady[i] = 0.05 + float64(i%7)*0.01
	}
	if b, _, _ := backlog(steady); b {
		t.Error("steady lateness flagged as a backlog")
	}
	growing := make([]float64, 400)
	for i := range growing {
		growing[i] = float64(i) * 0.5 // half a millisecond later every request
	}
	if b, _, _ := backlog(growing); !b {
		t.Error("growing lateness not flagged")
	}
}

func TestDueSchedule(t *testing.T) {
	// Two drivers at 1000 requests per second together: each offers one
	// request every 2 ms, offset by 1 ms.
	if got := time.Duration(dueNs(3, 0, 2, 1000)); got != 6*time.Millisecond {
		t.Errorf("driver 0 request 3 due at %v", got)
	}
	if got := time.Duration(dueNs(3, 1, 2, 1000)); got != 7*time.Millisecond {
		t.Errorf("driver 1 request 3 due at %v", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d is %q, benchmark has %q", i, w.Name, specs[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, benchmark has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, benchmark has %+v", i, m, d)
		}
	}
}
