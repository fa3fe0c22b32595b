package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
)

// httpWorkload runs qcloudsim -serve -http in logical time with one
// client connection that POSTs fixed-size NDJSON batches in a closed
// loop, then stops the server with SIGTERM so it drains and exports.
type httpWorkload struct {
	n            int
	interarrival float64
	batch        int      // jobs per POST
	batches      [][]byte // request bodies, from the last setup
}

func (w *httpWorkload) jobs() int { return w.n }

func (w *httpWorkload) setup(e *benchEnv) error {
	if err := writeWorkload(e, w.n, w.interarrival); err != nil {
		return err
	}
	stream, err := os.ReadFile(e.path("w.ndjson"))
	if err != nil {
		return err
	}
	w.batches = splitBatches(stream, w.batch)
	return nil
}

// splitBatches cuts an NDJSON stream into bodies of size lines each.
func splitBatches(stream []byte, size int) [][]byte {
	var out [][]byte
	for len(stream) > 0 {
		end, lines := 0, 0
		for end < len(stream) && lines < size {
			i := bytes.IndexByte(stream[end:], '\n')
			if i < 0 {
				end = len(stream)
				break
			}
			end += i + 1
			lines++
		}
		out = append(out, stream[:end])
		stream = stream[end:]
	}
	return out
}

func (w *httpWorkload) reference(e *benchEnv) ([]byte, error) {
	out, err := batchExport(e, false)
	if err != nil {
		return nil, err
	}
	return stripProvenance(out, "")
}

// controlPlanePrefix starts the stderr line on which qcloudsim -serve
// reports the HTTP listen address.
const controlPlanePrefix = "qcloudsim: HTTP control plane on http://"

// parseListenAddr extracts host:port from the control-plane line.
func parseListenAddr(line string) (string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), controlPlanePrefix)
	if !ok {
		return "", false
	}
	if _, _, err := net.SplitHostPort(rest); err != nil {
		return "", false
	}
	return rest, true
}

// newClient returns a client that keeps one connection to the server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// postBatches POSTs each batch in turn and waits for its response.
// It returns every request's latency from send to the full response,
// and how many requests were not answered 202 with every job accepted.
func postBatches(client *http.Client, base string, batches [][]byte) (latMS []float64, refused int, err error) {
	latMS = make([]float64, 0, len(batches))
	url := base + "/v1/jobs"
	for _, b := range batches {
		start := time.Now()
		resp, err := client.Post(url, "application/x-ndjson", bytes.NewReader(b))
		if err != nil {
			return latMS, refused, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		latMS = append(latMS, float64(time.Since(start))/1e6)
		if err != nil {
			return latMS, refused, err
		}
		var sr api.SubmitResponse
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &sr) != nil ||
			sr.Accepted != bytes.Count(b, []byte{'\n'}) {
			refused++
		}
	}
	return latMS, refused, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(client *http.Client, base string, exited <-chan struct{}) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("server exited before answering /healthz")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("server did not answer /healthz within 30s")
}

func (w *httpWorkload) measure(e *benchEnv) (r runResult, err error) {
	launch := time.Now()
	cmd, cancel := command(e.dir, e.qcloudsim(), "-serve", "-http", "127.0.0.1:0", "-policy", "fair", "-export", "out.csv")
	defer cancel()
	addrs := make(chan string, 1)
	var tail tailBuffer
	cmd.Stderr = &lineWriter{fn: func(l []byte) {
		tail.add(l)
		if a, ok := parseListenAddr(string(l)); ok {
			select {
			case addrs <- a:
			default:
			}
		}
	}}
	var fc finishCounter
	cmd.Stdout = &lineWriter{fn: fc.line}
	if err := cmd.Start(); err != nil {
		return r, err
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	defer func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, tail.String())
		}
	}()

	var base string
	select {
	case a := <-addrs:
		base = "http://" + a
	case <-exited:
		return r, fmt.Errorf("qcloudsim exited before listening: %v", waitErr)
	case <-time.After(30 * time.Second):
		return r, errors.New("qcloudsim did not report its HTTP address within 30s")
	}
	client := newClient()
	defer client.CloseIdleConnections()
	if err := waitHealthy(client, base, exited); err != nil {
		return r, err
	}
	r.launchS = since(launch)

	start := time.Now()
	r.latMS, r.refused, err = postBatches(client, base, w.batches)
	r.requests = len(r.latMS)
	if err != nil {
		return r, err
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return r, err
	}
	<-exited
	r.wallS = since(start)
	if waitErr != nil {
		return r, fmt.Errorf("qcloudsim: %w", waitErr)
	}
	r.ps = statsOf(cmd)
	raw, err := readOutput(e.path("out.csv"))
	if err != nil {
		return r, err
	}
	r.finished = exportRows(raw)
	if fc.n != r.finished {
		return r, fmt.Errorf("lifecycle stream reports %d finished jobs, export has %d rows", fc.n, r.finished)
	}
	r.out, err = stripProvenance(raw, "http")
	return r, err
}

// httpInProcess serves api.NewServer over loopback in this process,
// posts the same batches with the same client, then drains and
// exports as qcloudsim does on SIGTERM.
func (w *httpWorkload) inProcess(e *benchEnv, tr *tracer) (passResult, error) {
	br, err := buildBroker(tr)
	if err != nil {
		return passResult{}, err
	}
	var h http.Handler = api.NewServer(br.gw)
	if tr != nil {
		h = &tracedHandler{h: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passResult{}, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns ErrServerClosed after Shutdown below
	}()
	client := newClient()
	start := time.Now()
	root := tr.begin(spanRun, 0)
	_, refused, postErr := postBatches(client, "http://"+ln.Addr().String(), w.batches)
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := srv.Shutdown(ctx)
	<-served
	if err := errors.Join(postErr, shutErr); err != nil {
		return passResult{}, err
	}
	if refused > 0 {
		return passResult{}, fmt.Errorf("%d requests refused", refused)
	}
	if err := drain(tr, br.gw); err != nil {
		return passResult{}, err
	}
	raw, err := exportCSV(tr, br.rec, e.path("inproc.csv"))
	if err != nil {
		return passResult{}, err
	}
	tr.end(root)
	p := passResult{wallS: since(start), queue: profileQueue(br.rec.Finished())}
	if p.out, err = stripProvenance(raw, "http"); err != nil {
		return passResult{}, err
	}
	if tr != nil {
		p.layers = jobLayers(tr, br.pol, p.queue, w.n, len(raw), true)
	}
	return p, nil
}
