package main

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// These mirror qcloudsim -serve's defaults, so the in-process broker is
// the one the binary builds.
const (
	serveJobRetention = 65536
	serveWindow       = 512
)

// tracedPolicy times policy.Policy.Allocate and counts its outcomes.
type tracedPolicy struct {
	policy.Policy
	tr            *tracer
	calls, placed int
}

func (p *tracedPolicy) Allocate(j *job.QJob, ds []policy.DeviceState) []policy.Allocation {
	id := p.tr.begin(spanAllocate, 0)
	a := p.Policy.Allocate(j, ds)
	p.tr.end(id)
	p.calls++
	if a != nil {
		p.placed++
	}
	return a
}

// tracedRecorder times a core.StreamRecorder.
type tracedRecorder struct {
	rec  core.StreamRecorder
	tr   *tracer
	name spanName
}

func (r tracedRecorder) Arrival(j *job.QJob, t float64) {
	id := r.tr.begin(r.name, 0)
	r.rec.Arrival(j, t)
	r.tr.end(id)
}

func (r tracedRecorder) Start(jobID string, t float64) {
	id := r.tr.begin(r.name, 0)
	r.rec.Start(jobID, t)
	r.tr.end(id)
}

func (r tracedRecorder) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	id := r.tr.begin(r.name, 0)
	r.rec.Finish(jobID, finish, fidelity, commTime, deviceNames)
	r.tr.end(id)
}

func (r tracedRecorder) Drop(j *job.QJob, t float64, reason string) {
	id := r.tr.begin(r.name, 0)
	r.rec.Drop(j, t, reason)
	r.tr.end(id)
}

// tracedHandler times api.Server.ServeHTTP for job submissions; each
// POST is one request id.
type tracedHandler struct {
	h   http.Handler
	tr  *tracer
	seq atomic.Int32
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		t.h.ServeHTTP(w, r)
		return
	}
	id := t.tr.begin(spanSubmit, t.seq.Add(1))
	t.h.ServeHTTP(w, r)
	t.tr.end(id)
}

// wrapPolicy returns the fair policy, wrapped for timing when tr is set.
func wrapPolicy(tr *tracer) (policy.Policy, *tracedPolicy) {
	if tr == nil {
		return policy.Fair{}, nil
	}
	tp := &tracedPolicy{Policy: policy.Fair{}, tr: tr}
	return tp, tp
}

// broker is the serve-mode composition qcloudsim -serve -export builds,
// without the lifecycle stream on stdout.
type broker struct {
	gw  *api.Gateway
	rec *records.Manager
	pol *tracedPolicy
}

func buildBroker(tr *tracer) (*broker, error) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, fleetSeed)
	if err != nil {
		return nil, err
	}
	idx, err := core.NewJobIndex(serveJobRetention)
	if err != nil {
		return nil, err
	}
	rec := records.NewManager()
	var logRec, idxRec core.StreamRecorder = core.ManagerRecorder{M: rec}, idx
	if tr != nil {
		logRec = tracedRecorder{logRec, tr, spanRecordsLog}
		idxRec = tracedRecorder{idxRec, tr, spanRecordsIndex}
	}
	pol, tp := wrapPolicy(tr)
	b, err := core.NewBroker(env, fleet, pol, core.DefaultConfig(), core.MultiRecorder{logRec, idxRec}, serveWindow)
	if err != nil {
		return nil, err
	}
	if err := b.SetAdmission(core.AdmissionConfig{}); err != nil {
		return nil, err
	}
	gw, err := api.NewGateway(b, idx, true)
	if err != nil {
		return nil, err
	}
	return &broker{gw: gw, rec: rec, pol: tp}, nil
}

// exportCSV writes the records export to path, as the binaries do.
func exportCSV(tr *tracer, rec *records.Manager, path string) ([]byte, error) {
	id := tr.begin(spanExport, 0)
	defer tr.end(id)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := rec.WriteCSV(w); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return readOutput(path)
}

func drain(tr *tracer, gw *api.Gateway) error {
	id := tr.begin(spanDrain, 0)
	defer tr.end(id)
	_, err := gw.Drain()
	return err
}

// serveInProcess decodes w.ndjson job by job into the gateway, drains
// and exports: qcloudsim -serve's logical-time loop.
func serveInProcess(e *benchEnv, tr *tracer, n int) (passResult, error) {
	f, err := os.Open(e.path("w.ndjson"))
	if err != nil {
		return passResult{}, err
	}
	defer f.Close()
	start := time.Now()
	root := tr.begin(spanRun, 0)
	br, err := buildBroker(tr)
	if err != nil {
		return passResult{}, err
	}
	dec := job.NewStreamDecoder(f)
	for req := int32(1); ; req++ {
		id := tr.begin(spanDecode, req)
		j, err := dec.Next()
		tr.end(id)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return passResult{}, err
		}
		id = tr.begin(spanSubmit, req)
		br.gw.Submit(j)
		tr.end(id)
	}
	if err := drain(tr, br.gw); err != nil {
		return passResult{}, err
	}
	out, err := exportCSV(tr, br.rec, e.path("inproc.csv"))
	if err != nil {
		return passResult{}, err
	}
	tr.end(root)
	p := passResult{wallS: since(start), out: out, queue: profileQueue(br.rec.Finished())}
	if tr != nil {
		p.layers = jobLayers(tr, br.pol, p.queue, n, len(out), false)
	}
	return p, nil
}

// backfillInProcess loads w.csv and runs the batch engine with backfill
// dispatch: qcloudsim -backfill -jobs.
func backfillInProcess(e *benchEnv, tr *tracer, n int) (passResult, error) {
	f, err := os.Open(e.path("w.csv"))
	if err != nil {
		return passResult{}, err
	}
	defer f.Close()
	start := time.Now()
	root := tr.begin(spanRun, 0)
	id := tr.begin(spanLoadCSV, 0)
	jobs, err := job.LoadCSV(f)
	tr.end(id)
	if err != nil {
		return passResult{}, err
	}
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, fleetSeed)
	if err != nil {
		return passResult{}, err
	}
	pol, tp := wrapPolicy(tr)
	cfg := core.DefaultConfig()
	cfg.Backfill = true
	simEnv, err := core.NewQCloudSimEnv(env, fleet, pol, cfg)
	if err != nil {
		return passResult{}, err
	}
	simEnv.SubmitWorkload(jobs)
	id = tr.begin(spanDrain, 0)
	_, err = simEnv.Run()
	tr.end(id)
	if err != nil {
		return passResult{}, err
	}
	out, err := exportCSV(tr, simEnv.Records, e.path("inproc.csv"))
	if err != nil {
		return passResult{}, err
	}
	tr.end(root)
	p := passResult{wallS: since(start), out: out, queue: profileQueue(simEnv.Records.Finished())}
	if tr != nil {
		p.layers = jobLayers(tr, tp, p.queue, n, len(out), false)
	}
	return p, nil
}

// newLayers returns every per-layer metric at 0: a layer a workload
// does not reach reports 0.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer)+len(extraLayers))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for _, d := range extraLayers {
		m[d.name] = 0
	}
	return m
}

// jobLayers maps a job workload's spans onto the per-layer metrics.
// With handler set, api.submit spans are HTTP handler calls whose own
// time belongs to api; otherwise they are Gateway.Submit calls whose
// own time is the broker's.
func jobLayers(tr *tracer, pol *tracedPolicy, q queueProfile, n, exportBytes int, handler bool) map[string]float64 {
	t := tr.totals()
	m := newLayers()
	m["job.decode_s"] = t[spanDecode].dur
	m["job.load_csv_s"] = t[spanLoadCSV].dur
	m["api.submit_s"] = t[spanSubmit].dur
	m["api.requests"] = float64(t[spanSubmit].count)
	m["core.self_s"] = t[spanDrain].self
	if handler {
		m["api.self_s"] = t[spanSubmit].self
	} else {
		m["core.self_s"] += t[spanSubmit].self
	}
	m["core.drain_s"] = t[spanDrain].dur
	m["core.queue_depth_mean"] = q.mean
	m["core.queue_depth_max"] = q.max
	m["core.queued_share"] = q.queuedShare
	m["policy.allocate_calls"] = float64(pol.calls)
	m["policy.calls_per_job"] = float64(pol.calls) / float64(n)
	m["policy.allocate_s"] = t[spanAllocate].dur
	if pol.calls > 0 {
		m["policy.placed_frac"] = float64(pol.placed) / float64(pol.calls)
	}
	m["records.log_s"] = t[spanRecordsLog].dur
	m["records.index_s"] = t[spanRecordsIndex].dur
	m["records.export_s"] = t[spanExport].dur
	m["records.export_bytes"] = float64(exportBytes)
	return m
}
