package job

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// sameJob reports whether a and b are the same job, telling -0 from 0.
func sameJob(a, b *QJob) bool {
	return *a == *b && math.Float64bits(a.ArrivalTime) == math.Float64bits(b.ArrivalTime)
}

// canonicalLines returns WriteNDJSON's lines for a synthetic workload,
// some jobs with a tenant: the shape every producer in the repo emits.
func canonicalLines(t *testing.T, n int) [][]byte {
	t.Helper()
	cfg := DefaultSyntheticConfig()
	cfg.N = n
	jobs, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		jobs[i].Tenant = "acme"
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
}

// The lines the repo's own producers write, and the same lines spaced
// out with JSON whitespace, take the fast path and decode to exactly
// the reflective decoder's jobs.
func TestDecodeLineCanonicalTakesFastPath(t *testing.T) {
	lines := canonicalLines(t, 50)
	lines = append(lines,
		[]byte(" \t{ \"job_id\" : \"a\" ,\r\n\"num_qubits\":140 , \"depth\":10,\"num_shots\":1 , \"arrival_time\" : -0 } \r\n"),
		[]byte(`{"tenant":"","two_qubit_gates":0,"arrival_time":1.5e-3,"num_shots":1,"depth":2,"num_qubits":3,"job_id":"z"}`),
		[]byte(`{"job_id":"b","num_qubits":140,"depth":10,"num_shots":1,"arrival_time":1E+2}`),
	)
	for _, line := range lines {
		fast, ok := decodeCanonical(line)
		if !ok {
			t.Fatalf("fast path declined %q", line)
		}
		ref, err := decodeReflective(line)
		if err != nil {
			t.Fatalf("reflective decoder rejected %q: %v", line, err)
		}
		if !sameJob(fast, ref) {
			t.Fatalf("line %q: fast %+v, reflective %+v", line, fast, ref)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// DecodeLine agrees with the reflective reference on acceptance, on the
// whole job and on the error text, and the job it returns survives its
// input line being overwritten (the stream decoder hands it a slice of
// the reader's buffer). The seeds under testdata/fuzz cover the shapes
// the fast path must leave to encoding/json.
func FuzzDecodeLineMatchesReflective(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := DecodeLine(line)
		want, wantErr := decodeReflective(line)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("%q: error %q, reflective %q", line, errString(gotErr), errString(wantErr))
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%q: job %+v, reflective %+v", line, got, want)
		}
		if got == nil {
			return
		}
		for i := range line {
			line[i] = 'x'
		}
		if !sameJob(got, want) {
			t.Fatalf("job %+v, reflective %+v (after overwriting the line)", got, want)
		}
	})
}

// A canonical line costs the job and its ID; the numbers parse without
// a heap string.
func TestDecodeLineAllocs(t *testing.T) {
	line := []byte(`{"job_id":"job-000123","num_qubits":180,"depth":12,"num_shots":45000,"arrival_time":1234.5678901,"two_qubit_gates":540}`)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeLine(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("DecodeLine: %v allocs per canonical line, want <= 2", allocs)
	}
}

// Next on lines that fit in the reader allocates only the decoded job:
// no per-line buffer.
func TestStreamDecoderNextAllocs(t *testing.T) {
	line := `{"job_id":"job-000123","num_qubits":180,"depth":12,"num_shots":45000,"arrival_time":12.5}` + "\n"
	const runs = 500
	d := NewStreamDecoder(strings.NewReader(strings.Repeat(line, runs+1)))
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Next: %v allocs per line, want <= 2 (the job and its ID)", allocs)
	}
}

// A line longer than the reader's buffer is copied across refills and
// still decodes, as do the short lines around it.
func TestStreamDecoderLongLine(t *testing.T) {
	short := `{"job_id":"a","num_qubits":140,"depth":10,"num_shots":1}`
	long := `{"job_id":"b",` + strings.Repeat(" ", 200<<10) + `"num_qubits":140,"depth":10,"num_shots":1}`
	d := NewStreamDecoder(strings.NewReader(short + "\n" + long + "\n" + short))
	for _, want := range []string{"a", "b", "a"} {
		j, err := d.Next()
		if err != nil {
			t.Fatalf("Next(%s): %v", want, err)
		}
		if j.ID != want {
			t.Fatalf("ID = %q, want %q", j.ID, want)
		}
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end = %v, want io.EOF", err)
	}
}
