package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/records"
)

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p          float64
		v          float64
		wantBeyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
		{0, 1, 999},
	} {
		v, beyond := percentile(sorted, tc.p)
		if v != tc.v || beyond != tc.wantBeyond {
			t.Errorf("percentile(%g) = %g with %d beyond, want %g with %d", tc.p, v, beyond, tc.v, tc.wantBeyond)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	candidates := []float64{90, 99, 95}
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{1000, 99, true}, // exactly 10 beyond p99
		{999, 95, true},  // 9 beyond p99, 49 beyond p95
		{200, 95, true},  // 2 beyond p99, 10 beyond p95
		{100, 90, true},  // 10 beyond p90
		{99, 0, false},   // 9 beyond p90
	} {
		p, v, ok := tailPercentile(seq(tc.n), candidates)
		if ok != tc.ok || p != tc.wantP {
			t.Errorf("n=%d: tailPercentile = p%g (ok %v), want p%g (ok %v)", tc.n, p, ok, tc.wantP, tc.ok)
			continue
		}
		if ok {
			if _, beyond := percentile(seq(tc.n), p); beyond < minBeyond || v == 0 {
				t.Errorf("n=%d: p%g = %g has %d beyond", tc.n, p, v, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	xs := []float64{3, 1}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name: "nested: a grandchild is covered by its parent, not counted twice",
			spans: []span{
				{start: 0, end: 100, parent: -1},
				{start: 10, end: 60, parent: 0},
				{start: 20, end: 30, parent: 1},
			},
			want: []int64{50, 40, 10},
		},
		{
			name: "adjacent children touching end to start",
			spans: []span{
				{start: 0, end: 100, parent: -1},
				{start: 10, end: 40, parent: 0},
				{start: 40, end: 70, parent: 0},
				{start: 70, end: 80, parent: 0},
			},
			want: []int64{30, 30, 30, 10},
		},
		{
			name: "overlapping children from two goroutines count once",
			spans: []span{
				{start: 0, end: 100, parent: -1},
				{start: 10, end: 60, parent: 0},
				{start: 40, end: 90, parent: 0},
			},
			want: []int64{20, 50, 50},
		},
		{
			name: "children out of start order and clipped to the parent",
			spans: []span{
				{start: 0, end: 100, parent: -1},
				{start: 90, end: 120, parent: 0},
				{start: 5, end: 15, parent: 0},
				{start: 200, end: 210, parent: -1},
			},
			want: []int64{80, 30, 10, 10},
		},
	} {
		if got := selfTimes(tc.spans); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: selfTimes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerNestsAndInheritsRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanSubmit, 7)
	child := tr.begin(spanAllocate, 0)
	tr.end(child)
	tr.end(root)
	if s := tr.spans[child]; s.parent != root || s.req != 7 || s.end < s.start {
		t.Errorf("child span = %+v, want parent %d and req 7", s, root)
	}
	tot := tr.totals()
	if tot[spanSubmit].count != 1 || tot[spanAllocate].count != 1 {
		t.Errorf("totals = %+v", tot)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(spanRun, 1)) // an untraced pass records nothing
}

func TestStripProvenance(t *testing.T) {
	batch := "job_id,arrival,devices,source,remote,conn_id\nj1,0,2,,,\nj2,1.5,3,,,\n"
	http := "job_id,arrival,devices,source,remote,conn_id\nj1,0,2,http,127.0.0.1:5000,1\nj2,1.5,3,http,127.0.0.1:5000,2\n"
	want := "job_id,arrival,devices\nj1,0,2\nj2,1.5,3\n"
	for _, tc := range []struct{ in, source string }{{batch, ""}, {http, "http"}} {
		got, err := stripProvenance([]byte(tc.in), tc.source)
		if err != nil || string(got) != want {
			t.Errorf("stripProvenance(source %q) = %q, %v; want %q", tc.source, got, err, want)
		}
	}
	if _, err := stripProvenance([]byte(batch), "http"); err == nil {
		t.Error("rows without HTTP provenance passed as HTTP rows")
	}
	quoted := "job_id,device_names,source,remote,conn_id\nj1,\"a,b\",http,[::1]:80,3\n"
	if got, err := stripProvenance([]byte(quoted), "http"); err != nil || string(got) != "job_id,device_names\nj1,\"a,b\"\n" {
		t.Errorf("quoted field: got %q, %v", got, err)
	}
}

func TestParseListenAddr(t *testing.T) {
	for _, tc := range []struct {
		line, want string
		ok         bool
	}{
		{"qcloudsim: HTTP control plane on http://127.0.0.1:41234\n", "127.0.0.1:41234", true},
		{"qcloudsim: HTTP control plane on http://[::1]:8080", "[::1]:8080", true},
		{`{"sim_now":0,"admitted":0}`, "", false},
		{"qcloudsim: HTTP control plane on http://localhost", "", false},
		{"qcloudsim: broker listening on 127.0.0.1:9066", "", false},
	} {
		got, ok := parseListenAddr(tc.line)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseListenAddr(%q) = %q, %v; want %q, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSplitBatches(t *testing.T) {
	got := splitBatches([]byte("a\nb\nc\nd\ne\n"), 2)
	want := []string{"a\nb\n", "c\nd\n", "e\n"}
	if len(got) != len(want) {
		t.Fatalf("got %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("batch %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestProfileQueue(t *testing.T) {
	rows := []*records.JobStats{
		{Arrival: 0, Start: 0}, // finds an empty queue, starts at once
		{Arrival: 1, Start: 5}, // finds an empty queue, waits
		{Arrival: 2, Start: 6}, // finds job 2 waiting
		{Arrival: 3, Start: 7}, // finds jobs 2 and 3 waiting
		{Arrival: 8, Start: 8}, // finds an empty queue
	}
	got := profileQueue(rows)
	want := queueProfile{mean: 3.0 / 5, max: 2, queuedShare: 2.0 / 5}
	if got != want {
		t.Errorf("profileQueue = %+v, want %+v", got, want)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's workload names
// and metric names, units and directions in step with what perfbench
// reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q: not in perfbench, or without a why", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, perfbench %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestTracedPassMatchesUntraced runs each job workload's in-process
// composition on a small input with and without tracing: the traced
// pass must produce the same export and record the spans its layer
// metrics are built from.
func TestTracedPassMatchesUntraced(t *testing.T) {
	for name, wl := range map[string]workload{
		serveW: &serveWorkload{n: 300, interarrival: 60},
		httpW:  &httpWorkload{n: 300, interarrival: 600, batch: 25},
		batchW: &backfillWorkload{n: 100, interarrival: 60},
	} {
		t.Run(name, func(t *testing.T) {
			e := &benchEnv{dir: t.TempDir(), seed: 3, workers: 1}
			if err := wl.setup(e); err != nil {
				t.Fatal(err)
			}
			plain, err := wl.inProcess(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := wl.inProcess(e, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain.out, traced.out) || exportRows(plain.out) != wl.jobs() {
				t.Fatalf("traced export differs from untraced, or has %d rows for %d jobs", exportRows(plain.out), wl.jobs())
			}
			if traced.layers["policy.allocate_calls"] < float64(wl.jobs()) || traced.layers["records.export_s"] <= 0 {
				t.Errorf("layers = %v", traced.layers)
			}
			if len(traced.layers) != len(perLayer)+len(extraLayers) {
				t.Errorf("traced pass reports %d per-layer metrics, want %d", len(traced.layers), len(perLayer)+len(extraLayers))
			}
		})
	}
}
