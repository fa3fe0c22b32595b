package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procTimeout bounds one run of a program under test.
const procTimeout = 60 * time.Second

// procStats is what one finished program run cost its process.
type procStats struct {
	cpuS, rssMB float64
}

func statsOf(cmd *exec.Cmd) procStats {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return procStats{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports ru_maxrss in KiB.
	return procStats{cpuS: tv(ru.Utime) + tv(ru.Stime), rssMB: float64(ru.Maxrss) / 1024}
}

// lineWriter hands each complete line written to it to fn. It is safe
// for the one goroutine os/exec copies a pipe on.
type lineWriter struct {
	fn      func(line []byte)
	partial []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	n := len(p)
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			w.partial = append(w.partial, p...)
			return n, nil
		}
		if len(w.partial) > 0 {
			w.fn(append(w.partial, p[:i]...))
			w.partial = w.partial[:0]
		} else {
			w.fn(p[:i])
		}
		p = p[i+1:]
	}
}

// tailBuffer keeps the last lines a program wrote, for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 8 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, string(line))
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// finishCounter counts "finish" lifecycle events on qcloudsim -serve's
// standard output.
type finishCounter struct{ n int }

var finishEvent = []byte(`"event":"finish"`)

func (c *finishCounter) line(l []byte) {
	if bytes.Contains(l, finishEvent) {
		c.n++
	}
}

// command builds a run of a program under test in dir, bounded by
// procTimeout. The caller must call the returned cancel.
func command(dir, bin string, args ...string) (*exec.Cmd, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	return cmd, cancel
}

// runTimed runs cmd to completion and returns its host wall time and
// resource use. stderr's last lines go into the error on failure.
func runTimed(cmd *exec.Cmd) (wallS float64, ps procStats, err error) {
	var tail tailBuffer
	if cmd.Stderr == nil {
		cmd.Stderr = &lineWriter{fn: tail.add}
	}
	start := time.Now()
	err = cmd.Run()
	wallS = time.Since(start).Seconds()
	if err != nil {
		return 0, procStats{}, fmt.Errorf("%s: %w\n%s", strings.Join(cmd.Args, " "), err, tail.String())
	}
	return wallS, statsOf(cmd), nil
}
