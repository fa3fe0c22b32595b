package records

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestWriteCSVContent(t *testing.T) {
	m := NewManager()
	m.LogArrival("j1", 0)
	m.LogStart("j1", 5)
	m.LogFinish("j1", 25, 0.75, 3.8, []string{"ibm_quebec", "ibm_kyiv"})

	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "job_id" {
		t.Fatalf("header = %v", rows[0])
	}
	r := rows[1]
	if r[0] != "j1" || r[4] != "5" || r[7] != "0.75" || r[9] != "2" {
		t.Fatalf("row = %v", r)
	}
	if r[10] != "ibm_quebec+ibm_kyiv" {
		t.Fatalf("device names = %q", r[10])
	}
}

func TestWriteCSVEmptyManager(t *testing.T) {
	var buf bytes.Buffer
	if err := NewManager().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("expected header only, got %q", buf.String())
	}
}

func TestWriteEventLog(t *testing.T) {
	m := NewManager()
	m.LogArrival("a", 1)
	m.LogStart("a", 2)
	m.LogFinish("a", 3, 0.5, 0, []string{"d"})
	var buf bytes.Buffer
	if err := m.WriteEventLog(&buf); err != nil {
		t.Fatal(err)
	}
	want := "job_id,event,time\na,arrival,1\na,start,2\na,finish,3\n"
	if buf.String() != want {
		t.Fatalf("event log = %q", buf.String())
	}
}

// writeStatsCSVRef is the reference export: encoding/csv over string
// rows, with floats in the shortest 'g' form and device names joined
// by "+". WriteStatsCSV must write exactly these bytes.
func writeStatsCSVRef(w io.Writer, rows []*JobStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(strings.Split(strings.TrimSuffix(statsHeader, "\n"), ",")); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range rows {
		connID := ""
		if s.Source != "" {
			connID = strconv.FormatInt(s.ConnID, 10)
		}
		row := []string{
			s.JobID,
			f(s.Arrival), f(s.Start), f(s.Finish),
			f(s.WaitTime()), f(s.ExecTime()), f(s.Turnaround()),
			f(s.Fidelity), f(s.CommTime),
			strconv.Itoa(s.Devices),
			strings.Join(s.DeviceNames, "+"),
			s.Source, s.Remote, connID,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fuzzRows builds two rows from fuzz inputs: the second reuses the
// fields in another order so the reused row buffer carries state from
// one row to the next. nDev picks nil, one, two or three device names.
func fuzzRows(id, dev0, dev1, source, remote string, arrival, start, finish, fid float64, nDev uint8, connID int64) []*JobStats {
	names := [][]string{nil, {dev0}, {dev0, dev1}, {dev1, dev0, dev0}}[nDev%4]
	return []*JobStats{
		{
			JobID: id, Arrival: arrival, Start: start, Finish: finish, Fidelity: fid, CommTime: start,
			Devices: len(names), DeviceNames: names, Source: source, Remote: remote, ConnID: connID,
		},
		{
			JobID: remote, Arrival: finish, Start: arrival, Finish: start, Fidelity: -fid, CommTime: finish,
			Devices: int(nDev), DeviceNames: []string{dev1}, Source: id, Remote: source, ConnID: -connID,
		},
	}
}

// WriteStatsCSV matches encoding/csv on arbitrary IDs, device names,
// source and remote (commas, quotes, CR, LF, leading Unicode space,
// `\.`, empty) and on every float, NaN, ±Inf, ±0 and subnormals
// included. The seeds live under testdata/fuzz.
func FuzzStatsCSVMatchesEncodingCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, id, dev0, dev1, source, remote string, arrival, start, finish, fid float64, nDev uint8, connID int64) {
		rows := fuzzRows(id, dev0, dev1, source, remote, arrival, start, finish, fid, nDev, connID)
		var got, want bytes.Buffer
		if err := WriteStatsCSV(&got, rows); err != nil {
			t.Fatal(err)
		}
		if err := writeStatsCSVRef(&want, rows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("export differs from encoding/csv:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}

// statsRows returns n identical-shape rows for the allocation gate.
func statsRows(n int) []*JobStats {
	rows := make([]*JobStats, n)
	for i := range rows {
		rows[i] = &JobStats{
			JobID: "job-" + strconv.Itoa(i), Arrival: float64(i) * 1.25, Start: float64(i)*1.25 + 3.5,
			Finish: float64(i)*1.25 + 97.125, Fidelity: 0.8123456789, CommTime: 0.0421,
			Devices: 2, DeviceNames: []string{"ibm_quebec", "ibm_kyiv"},
			Source: "http", Remote: "127.0.0.1:40000", ConnID: int64(i),
		}
	}
	return rows
}

// An export allocates a fixed amount (its writer and row buffer), not
// an amount per row: one allocation per row would add 9000 between 1k
// and 10k rows. The slack of 2 absorbs stray runtime allocations during
// the longer export (seen under -race).
func TestWriteStatsCSVAllocsPerExport(t *testing.T) {
	allocs := func(n int) float64 {
		rows := statsRows(n)
		return testing.AllocsPerRun(10, func() {
			if err := WriteStatsCSV(io.Discard, rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small > 4 || large > small+2 {
		t.Fatalf("allocs per export: %v for 1k rows, %v for 10k rows; want <= 4 and flat", small, large)
	}
}
