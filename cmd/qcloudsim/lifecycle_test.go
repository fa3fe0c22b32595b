package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/policy"
)

// lifecycleLine is the reference encoding of one lifecycle event: the
// emitter must write exactly what json.Encoder writes for it.
type lifecycleLine struct {
	Event    string   `json:"event"`
	JobID    string   `json:"job_id"`
	T        float64  `json:"t"`
	Reason   string   `json:"reason,omitempty"`
	Fidelity *float64 `json:"fidelity,omitempty"`
	CommTime *float64 `json:"comm_time,omitempty"`
	Devices  []string `json:"devices,omitempty"`
}

// encodeRef returns json.Encoder's line for l, or nothing when Encoder
// refuses it (a non-finite float).
func encodeRef(l lifecycleLine) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(l); err != nil {
		return nil
	}
	return buf.Bytes()
}

// emitted runs calls against a fresh emitter and returns what it wrote.
func emitted(calls func(e *finishEmitter)) []byte {
	var buf bytes.Buffer
	e := newFinishEmitter(&buf)
	calls(e)
	e.Flush()
	return buf.Bytes()
}

// Every emitter method writes the bytes json.Encoder writes for the
// equivalent lifecycleLine, through one emitter so the reused scratch
// line carries from call to call. devMode picks nil, empty, one or
// three devices.
func FuzzLifecycleLineMatchesEncodingJSON(f *testing.F) {
	ids := []string{
		"job-000001", "", `a<b>&c"d\e`, "\x00\x01\t\n\x1f\x7f", "line\u2028sep\u2029",
		"bad\xff\xfeutf8", "héllo 日本 🚀", "</script>",
	}
	for i, id := range ids {
		f.Add(id, "queue_full", id, 12.5, 0.93, 0.04, uint8(i))
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 12.5, 1.0 / 3, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, math.Nextafter(-1e-6, 0), 1e-7, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), -1e21, math.Nextafter(-1e21, 0), 1e22, 1.2345e300,
		5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308 / 2,
		math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i, x := range floats {
		f.Add("job-1", "", "ibm_kyiv", x, x, x, uint8(i))
		f.Add("job-2", "quota", "ibm_kyiv", 3.0, x, 0.5, uint8(2))
		f.Add("job-3", "<shed>", "ibm_brisbane", 3.0, 0.5, x, uint8(3))
	}
	f.Fuzz(func(t *testing.T, id, reason, dev string, tm, fid, comm float64, devMode uint8) {
		var devices []string
		switch devMode % 4 {
		case 1:
			devices = []string{}
		case 2:
			devices = []string{dev}
		case 3:
			devices = []string{dev, id, reason}
		}
		j := &job.QJob{ID: id}
		got := emitted(func(e *finishEmitter) {
			e.Arrival(j, tm)
			e.Start(id, tm)
			e.Finish(id, tm, fid, comm, devices)
			e.Drop(j, tm, reason)
		})
		var want []byte
		want = append(want, encodeRef(lifecycleLine{Event: "arrival", JobID: id, T: tm})...)
		want = append(want, encodeRef(lifecycleLine{Event: "start", JobID: id, T: tm})...)
		want = append(want, encodeRef(lifecycleLine{Event: "finish", JobID: id, T: tm,
			Fidelity: &fid, CommTime: &comm, Devices: devices})...)
		want = append(want, encodeRef(lifecycleLine{Event: "drop", JobID: id, T: tm, Reason: reason})...)
		if !bytes.Equal(got, want) {
			t.Fatalf("emitter diverges from encoding/json:\ngot:  %q\nwant: %q", got, want)
		}
	})
}

// Literal lines pin the format itself, independent of encoding/json.
func TestLifecycleLineGolden(t *testing.T) {
	cases := []struct {
		name  string
		calls func(e *finishEmitter)
		want  string
	}{
		{"arrival", func(e *finishEmitter) { e.Arrival(&job.QJob{ID: "j1"}, 12.5) },
			`{"event":"arrival","job_id":"j1","t":12.5}`},
		{"start exponent", func(e *finishEmitter) { e.Start("j1", 1e21) },
			`{"event":"start","job_id":"j1","t":1e+21}`},
		{"finish", func(e *finishEmitter) { e.Finish("j1", 100, 0.9, 0, []string{"a", "b"}) },
			`{"event":"finish","job_id":"j1","t":100,"fidelity":0.9,"comm_time":0,"devices":["a","b"]}`},
		{"finish no devices", func(e *finishEmitter) { e.Finish("j1", math.Copysign(0, -1), 1e-7, 1e-6, []string{}) },
			`{"event":"finish","job_id":"j1","t":-0,"fidelity":1e-7,"comm_time":0.000001}`},
		{"drop escaped", func(e *finishEmitter) { e.Drop(&job.QJob{ID: "<&>\"\u2028"}, 2, "") },
			`{"event":"drop","job_id":"\u003c\u0026\u003e\"\u2028","t":2}`},
		{"drop reason", func(e *finishEmitter) { e.Drop(&job.QJob{ID: "j2"}, 2, "queue_full") },
			`{"event":"drop","job_id":"j2","t":2,"reason":"queue_full"}`},
		{"non-finite", func(e *finishEmitter) { e.Finish("j1", 1, math.NaN(), 0, nil) }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.want
			if want != "" {
				want += "\n"
			}
			if got := string(emitted(c.calls)); got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		})
	}
}

// The emitter's steady state allocates nothing: lines are appended
// into a reused scratch buffer and copied into the batch buffer.
func TestLifecycleEmitterAllocFree(t *testing.T) {
	e := newFinishEmitter(io.Discard)
	j := &job.QJob{ID: "job-000042"}
	devices := []string{"ibm_kyiv", "ibm_sherbrooke"}
	cycle := func() {
		e.Arrival(j, 1234.5)
		e.Start(j.ID, 1300.25)
		e.Finish(j.ID, 1400.125, 0.8731, 0.04, devices)
		e.Drop(j, 1500, "queue_full")
	}
	cycle() // grow the scratch line to its working size
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("lifecycle emit cycle allocates %.1f times, want 0", allocs)
	}
}

// Recorder calls and flushes arrive from several goroutines at once
// (gateway-locked emits, the stdin decoder, HTTP handlers, the
// real-time loop); every line must come out whole.
func TestLifecycleEmitterConcurrentFlush(t *testing.T) {
	const writers, perWriter = 4, 500
	var out syncBuffer
	e := newFinishEmitter(&out)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := &job.QJob{ID: "job-" + strconv.Itoa(w)}
			for i := range perWriter {
				e.Arrival(j, float64(i))
				if i%50 == 0 {
					e.Flush()
				}
			}
		}()
	}
	wg.Wait()
	e.Flush()
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != writers*perWriter {
		t.Fatalf("%d lines, want %d", len(lines), writers*perWriter)
	}
	for _, line := range lines {
		var l lifecycleLine
		if err := json.Unmarshal([]byte(line), &l); err != nil || l.Event != "arrival" {
			t.Fatalf("torn line %q: %v", line, err)
		}
	}
}

// countingWriter counts the Write calls made on it and the lines they
// carry.
type countingWriter struct{ writes, lines int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// The lifecycle stream is written in batches: a logical stdin replay
// makes a handful of output writes per buffer, not one per event.
func TestServeLifecycleWritesPerJob(t *testing.T) {
	const n = 2000
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, testJobs(t, n)); err != nil {
		t.Fatal(err)
	}
	var out countingWriter
	var errOut bytes.Buffer
	err := runServe(context.Background(), serveOptions{
		pol:       policy.Speed{},
		cfg:       core.DefaultConfig(),
		fleetSeed: 2025,
		window:    64,
	}, &stream, &out, &errOut)
	if err != nil {
		t.Fatalf("runServe: %v", err)
	}
	if out.lines != 3*n {
		t.Fatalf("lifecycle stream has %d lines, want %d", out.lines, 3*n)
	}
	if perJob := float64(out.writes) / n; perJob >= 0.05 {
		t.Fatalf("%d output writes for %d jobs (%.3f per job), want < 0.05 per job", out.writes, n, perJob)
	}
}

// nextLineWith waits for a line containing needle, skipping others.
func nextLineWith(t *testing.T, lines <-chan string, needle string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("lifecycle stream closed before a line with %s", needle)
			}
			if strings.Contains(line, needle) {
				return
			}
		case <-timeout:
			t.Fatalf("no line with %s on stdout before the broker waited for input", needle)
		}
	}
}

func arrivalNeedle(id string) string { return `"event":"arrival","job_id":"` + id + `"` }

// Batching must not delay a line past the broker's next wait: a job's
// arrival line is on stdout before the broker reads the next job, and
// an HTTP submission's lines are out by the time its 202 arrives.
func TestServeLifecycleVisibleBeforeNextRead(t *testing.T) {
	opts := serveOptions{pol: policy.Speed{}, cfg: core.DefaultConfig(), fleetSeed: 2025, window: 64}

	t.Run("stdin", func(t *testing.T) {
		jobs := testJobs(t, 8)
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		lines := make(chan string, 64)
		go func() {
			defer close(lines)
			sc := bufio.NewScanner(outR)
			for sc.Scan() {
				lines <- sc.Text()
			}
		}()
		done := make(chan error, 1)
		go func() {
			var errOut bytes.Buffer
			err := runServe(context.Background(), opts, inR, outW, &errOut)
			outW.Close()
			done <- err
		}()
		for _, j := range jobs {
			var line bytes.Buffer
			if err := job.WriteNDJSON(&line, []*job.QJob{j}); err != nil {
				t.Fatal(err)
			}
			if _, err := inW.Write(line.Bytes()); err != nil {
				t.Fatal(err)
			}
			nextLineWith(t, lines, arrivalNeedle(j.ID))
		}
		inW.Close()
		for range lines {
		}
		if err := <-done; err != nil {
			t.Fatalf("runServe: %v", err)
		}
	})

	t.Run("http", func(t *testing.T) {
		jobs := testJobs(t, 5)
		httpOpts := opts
		addrCh := make(chan net.Addr, 1)
		httpOpts.httpAddr = "127.0.0.1:0"
		httpOpts.onHTTP = func(a net.Addr) { addrCh <- a }
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var out syncBuffer
		done := make(chan error, 1)
		go func() {
			var errOut bytes.Buffer
			done <- runServe(ctx, httpOpts, strings.NewReader(""), &out, &errOut)
		}()
		base := "http://" + (<-addrCh).String()
		var body bytes.Buffer
		if err := job.WriteNDJSON(&body, jobs); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/jobs", "application/x-ndjson", &body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs = %d, want 202", resp.StatusCode)
		}
		got := out.String()
		for _, j := range jobs {
			if !strings.Contains(got, arrivalNeedle(j.ID)) {
				t.Fatalf("arrival line for %s not on stdout after 202; stdout:\n%s", j.ID, got)
			}
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("runServe: %v", err)
		}
	})
}

// syncBuffer is a bytes.Buffer safe to read while the broker writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
