package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/job"
)

// finishEmitter streams job lifecycle events as JSON lines. Lines
// collect in one 64 KiB buffer and reach the output in batches: the
// broker calls Flush whenever it is about to wait (before each read of
// the ingest stream, after each real-time tick and HTTP request, and
// after the drain), so every line is out before the process next blocks
// for input. The mutex guards the buffer because those flushes come
// from goroutines other than the gateway-locked recorder calls.
//
// Each line is appended by hand into a reused scratch buffer, byte for
// byte what encoding/json's Encoder would write for the equivalent
// struct (the reference in the package's tests). A line carrying a
// non-finite float is not written, as Encoder refuses it.
type finishEmitter struct {
	mu   sync.Mutex
	w    *bufio.Writer
	line []byte
}

func newFinishEmitter(w io.Writer) *finishEmitter {
	return &finishEmitter{w: bufio.NewWriterSize(w, 64<<10), line: make([]byte, 0, 256)}
}

// Flush writes every buffered line to the output.
func (e *finishEmitter) Flush() {
	e.mu.Lock()
	e.w.Flush() //lint:allow errlint lifecycle emission is best-effort; a broken out pipe must not crash the broker
	e.mu.Unlock()
}

// head starts a line in the scratch buffer: event name, job ID and
// time. The caller holds e.mu until end.
func (e *finishEmitter) head(event, jobID string, t float64) []byte {
	b := append(e.line[:0], `{"event":"`...)
	b = append(b, event...)
	b = append(b, `","job_id":`...)
	b = appendJSONString(b, jobID)
	b = append(b, `,"t":`...)
	return appendJSONFloat(b, t)
}

// end closes a line started by head and buffers it.
func (e *finishEmitter) end(b []byte) {
	b = append(b, "}\n"...)
	e.w.Write(b)
	e.line = b
}

// Arrival implements core.StreamRecorder.
func (e *finishEmitter) Arrival(j *job.QJob, t float64) {
	if !finite(t) {
		return
	}
	e.mu.Lock()
	e.end(e.head("arrival", j.ID, t))
	e.mu.Unlock()
}

// Start implements core.StreamRecorder.
func (e *finishEmitter) Start(jobID string, t float64) {
	if !finite(t) {
		return
	}
	e.mu.Lock()
	e.end(e.head("start", jobID, t))
	e.mu.Unlock()
}

// Finish implements core.StreamRecorder.
func (e *finishEmitter) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	if !finite(finish) || !finite(fidelity) || !finite(commTime) {
		return
	}
	e.mu.Lock()
	b := e.head("finish", jobID, finish)
	b = append(b, `,"fidelity":`...)
	b = appendJSONFloat(b, fidelity)
	b = append(b, `,"comm_time":`...)
	b = appendJSONFloat(b, commTime)
	if len(deviceNames) > 0 {
		b = append(b, `,"devices":[`...)
		for i, d := range deviceNames {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, d)
		}
		b = append(b, ']')
	}
	e.end(b)
	e.mu.Unlock()
}

// Drop implements core.StreamRecorder: an admission-control refusal or
// shed, with the reason on the line.
func (e *finishEmitter) Drop(j *job.QJob, t float64, reason string) {
	if !finite(t) {
		return
	}
	e.mu.Lock()
	b := e.head("drop", j.ID, t)
	if reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, reason)
	}
	e.end(b)
	e.mu.Unlock()
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// shortest 'f' form, or 'e' form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent written without its leading zero.
//
//repro:noalloc
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as in encoding/json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string. Printable ASCII other
// than the quote, the backslash and the HTML-escaped <, > and & needs
// no escaping; any other string goes through encoding/json.
//
//repro:noalloc
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSONStringEscaped(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	b = append(b, '"')
	return b
}

// appendJSONStringEscaped is appendJSONString's slow path. Marshal
// escapes exactly as json.Encoder does, HTML characters included.
func appendJSONStringEscaped(b []byte, s string) []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic(err) // unreachable: every Go string marshals
	}
	return append(b, data...)
}

// flushAfter flushes the lifecycle stream when each request's handler
// returns, so the lines a request produced are out before the server
// waits for the next one.
func flushAfter(next http.Handler, lc *finishEmitter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer lc.Flush()
		next.ServeHTTP(w, r)
	})
}

// flushingReader flushes the lifecycle stream before every Read of the
// ingest stream, so each line is out before the broker blocks for more
// input. Reads come from a 64 KiB buffered decoder, so a stream that
// keeps up is flushed once per buffer refill, not once per line.
type flushingReader struct {
	r  io.Reader
	lc *finishEmitter
}

func (f flushingReader) Read(p []byte) (int, error) {
	f.lc.Flush()
	return f.r.Read(p)
}
