package job

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrTruncated marks a stream that ended mid-record: the final line had
// no terminating newline and does not decode as a complete job. A
// connection cut mid-batch surfaces as this error instead of a clean
// EOF, so the dropped tail is never silently swallowed.
var ErrTruncated = errors.New("stream truncated mid-record")

// maxLineBytes bounds one NDJSON job line. Job lines are small, but
// leave generous headroom for pathological inputs.
const maxLineBytes = 1 << 20

// StreamDecoder reads an open-ended workload as line-delimited JSON: one
// jobJSON object per line, the broker ingest format. It reuses the batch
// loader's schema and defaults, so a JSON-array workload converted to
// NDJSON decodes to the identical jobs — the property the serve-smoke
// byte-identity gate rests on. Blank lines are skipped. Decode errors
// carry the 1-based line number and, when SetSource was called, the
// ingest provenance, so an operator can attribute a poisoned line to
// the connection that delivered it.
type StreamDecoder struct {
	br     *bufio.Reader
	line   int
	ingest Ingest
	done   bool
}

// NewStreamDecoder wraps r in a line-delimited JSON job decoder.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{br: bufio.NewReaderSize(r, 64<<10)}
}

// Line returns the 1-based line number of the last decoded job, for
// error reporting by callers.
func (d *StreamDecoder) Line() int { return d.line }

// SetSource stamps every subsequently decoded job with ingest
// provenance: the ingest path name, the peer address, and a
// broker-local connection (or request) sequence number. Provenance is
// server-side metadata, not part of the wire schema — a job line that
// tries to carry its own is rejected by DisallowUnknownFields.
func (d *StreamDecoder) SetSource(source, remote string, connID int64) {
	d.ingest = Ingest{Source: source, Remote: remote, ConnID: connID}
}

// where locates an error: line number plus ingest provenance when set.
func (d *StreamDecoder) where() string {
	if d.ingest.Source == "" {
		return fmt.Sprintf("stream line %d", d.line)
	}
	return fmt.Sprintf("%s stream line %d (remote %s, conn %d)",
		d.ingest.Source, d.line, d.ingest.Remote, d.ingest.ConnID)
}

// streamName names the stream for read (not decode) errors.
func (d *StreamDecoder) streamName() string {
	if d.ingest.Source == "" {
		return "stream"
	}
	return fmt.Sprintf("%s stream (remote %s, conn %d)", d.ingest.Source, d.ingest.Remote, d.ingest.ConnID)
}

// readLine reads one physical line including its newline. At end of
// stream it returns the unterminated tail (possibly empty) with io.EOF.
// A line that fits in the reader's buffer is returned as a slice of
// that buffer, valid only until the next read; only a line spanning
// buffer refills is copied.
func (d *StreamDecoder) readLine() ([]byte, error) {
	frag, err := d.br.ReadSlice('\n')
	if !errors.Is(err, bufio.ErrBufferFull) {
		return frag, err
	}
	buf := append([]byte(nil), frag...)
	for {
		frag, err = d.br.ReadSlice('\n')
		buf = append(buf, frag...)
		if !errors.Is(err, bufio.ErrBufferFull) {
			return buf, err
		}
		if len(buf) > maxLineBytes {
			return nil, fmt.Errorf("line exceeds %d bytes", maxLineBytes)
		}
	}
}

// Next decodes the next job. It returns io.EOF once the stream ends
// cleanly (at a line boundary, or after a final complete record with no
// trailing newline). A stream that ends mid-record instead yields an
// error wrapping ErrTruncated.
func (d *StreamDecoder) Next() (*QJob, error) {
	if d.done {
		return nil, io.EOF
	}
	for {
		raw, readErr := d.readLine()
		if readErr != nil && !errors.Is(readErr, io.EOF) {
			return nil, fmt.Errorf("job: reading %s: %w", d.streamName(), readErr)
		}
		atEOF := readErr != nil
		if atEOF {
			d.done = true
		}
		if len(raw) == 0 {
			return nil, io.EOF
		}
		d.line++
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 {
			if atEOF {
				return nil, io.EOF
			}
			continue
		}
		j, err := DecodeLine(trimmed)
		if err != nil {
			if atEOF && !bytes.HasSuffix(raw, []byte("\n")) {
				// The stream died without a newline and the tail does
				// not decode: a cut mid-record, not a clean end.
				return nil, fmt.Errorf("job: %s: %w: %w", d.where(), ErrTruncated, err)
			}
			return nil, fmt.Errorf("job: %s: %w", d.where(), err)
		}
		j.Ingest = d.ingest
		return j, nil
	}
}

// DecodeLine decodes one NDJSON job line (the broker wire schema),
// applying the batch loader's defaults and validation. JSON whitespace
// may surround the object; any other byte after it is an error. Ingest
// provenance is left zero; callers stamp it. The returned job shares no
// memory with line.
//
// A line in the canonical shape (exact lowercase keys, plain ASCII
// strings, integer int fields) takes a hand-written fast path; any
// other line, and every error, goes through decodeReflective, so both
// paths accept the same jobs and report the same errors.
func DecodeLine(line []byte) (*QJob, error) {
	if j, ok := decodeCanonical(line); ok {
		return j, nil
	}
	return decodeReflective(line)
}

// errTrailingData reports bytes after the job object on an NDJSON line.
var errTrailingData = errors.New("unexpected data after the job object")

// decodeReflective is the reference decoder: encoding/json with
// DisallowUnknownFields (keys match case-insensitively and the last of
// a duplicate key wins), then a check that nothing but whitespace
// follows the object.
func decodeReflective(line []byte) (*QJob, error) {
	var rj jobJSON
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rj); err != nil {
		return nil, err
	}
	if !atEnd(dec) {
		return nil, errTrailingData
	}
	return rj.toJob()
}

// atEnd reports whether only JSON whitespace follows the value dec last
// decoded.
func atEnd(dec *json.Decoder) bool {
	_, err := dec.Token()
	return err == io.EOF
}

// WriteNDJSON emits jobs in the stream decoder's line-delimited format.
func WriteNDJSON(w io.Writer, jobs []*QJob) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, j := range jobs {
		arr := j.ArrivalTime
		t2 := j.TwoQubitGates
		rj := jobJSON{
			ID:            j.ID,
			NumQubits:     j.NumQubits,
			Depth:         j.Depth,
			Shots:         j.Shots,
			ArrivalTime:   &arr,
			TwoQubitGates: &t2,
			Tenant:        j.Tenant,
		}
		if err := enc.Encode(rj); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSON emits jobs as the batch loader's JSON-array format.
func WriteJSON(w io.Writer, jobs []*QJob) error {
	raw := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		arr := j.ArrivalTime
		t2 := j.TwoQubitGates
		raw[i] = jobJSON{
			ID:            j.ID,
			NumQubits:     j.NumQubits,
			Depth:         j.Depth,
			Shots:         j.Shots,
			ArrivalTime:   &arr,
			TwoQubitGates: &t2,
			Tenant:        j.Tenant,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(raw)
}
