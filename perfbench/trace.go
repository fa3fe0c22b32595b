package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spanRun           spanName = iota // one whole in-process pass
	spanDecode                        // job.StreamDecoder.Next
	spanLoadCSV                       // job.LoadCSV
	spanSubmit                        // api.Gateway.Submit, or api.Server.ServeHTTP for a POST
	spanDrain                         // api.Gateway.Drain, or core.QCloudSimEnv.Run
	spanAllocate                      // policy.Policy.Allocate
	spanRecordsLog                    // core.ManagerRecorder (records.Manager lifecycle log)
	spanRecordsIndex                  // core.JobIndex
	spanExport                        // records.Manager.WriteCSV
	spanTrain                         // experiments.CaseStudy.TrainRL
	spanSimulatePhase                 // every experiments.CaseStudy.RunMode of a spec run
	spanSimulate                      // one experiments.CaseStudy.RunMode; req is the mode index
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "job.decode", "job.load_csv", "api.submit", "core.drain", "policy.allocate",
	"records.log", "records.index", "records.export", "rlsched.train",
	"experiments.simulate", "experiments.run_mode",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call across a layer boundary. Times are host
// nanoseconds since the tracer was created.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 for a root
	req        int32 // the job or HTTP batch the work was done for, 0 if none
	name       spanName
}

// tracer keeps spans in memory for one in-process pass. Spans opened
// with begin nest on a stack, which suits the compositions here: every
// wrapped call on the stack runs under the gateway lock or on the
// simulation's one running process at a time. Calls that overlap on
// several goroutines use beginUnder with an explicit parent.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open stacked span. A req of
// 0 inherits the parent's request. On a nil tracer it records nothing,
// so untraced passes run the same code.
func (t *tracer) begin(name spanName, req int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		if req == 0 {
			req = t.spans[parent].req
		}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: parent, req: req, name: name})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost stacked span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d (%s) closed out of order", id, t.spans[id].name))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].end = t.now()
}

// beginUnder opens a span with an explicit parent, off the stack.
func (t *tracer) beginUnder(name spanName, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: parent, req: req, name: name})
	return id
}

// endUnder closes a span opened with beginUnder.
func (t *tracer) endUnder(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = t.now()
}

// selfTimes returns each span's duration minus the part of it that
// its direct children cover. Children may nest their own children,
// touch end to start, or overlap one another when they ran on
// different goroutines; the covered part is the union of the
// children's intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	children := make([]int32, 0, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			children = append(children, int32(i))
		}
	}
	sort.SliceStable(children, func(a, b int) bool {
		ca, cb := spans[children[a]], spans[children[b]]
		if ca.parent != cb.parent {
			return ca.parent < cb.parent
		}
		return ca.start < cb.start
	})
	for i := 0; i < len(children); {
		p := spans[children[i]].parent
		lo, hi := spans[p].start, spans[p].end
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for ; i < len(children) && spans[children[i]].parent == p; i++ {
			c := spans[children[i]]
			s, e := max(c.start, lo), min(c.end, hi)
			if e <= s {
				continue
			}
			if s > curEnd {
				covered += max(curEnd-curStart, 0)
				curStart, curEnd = s, e
			} else {
				curEnd = max(curEnd, e)
			}
		}
		covered += max(curEnd-curStart, 0)
		self[p] -= covered
	}
	return self
}

// layerTotal sums the spans recorded under one name.
type layerTotal struct {
	dur, self float64 // seconds
	count     int
}

// totals sums duration, self time and count per span name.
func (t *tracer) totals() [numSpanNames]layerTotal {
	var out [numSpanNames]layerTotal
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		lt := &out[s.name]
		lt.dur += float64(s.end-s.start) / 1e9
		lt.self += float64(self[i]) / 1e9
		lt.count++
	}
	return out
}

// writeCSV writes every span, one per line, for inspection after the run.
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,req,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
