package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// boundary. Times are nanoseconds since the tracer started; CPU is the
// process CPU consumed while the span was open (meaningful only when no
// other goroutine is busy, i.e. everywhere but serve_mixed).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	CPU    int64  `json:"cpu"`
	Parent int    `json:"parent"` // index into the span list, -1 for an op's root
	Op     int    `json:"op"`     // spans of one operation share this id
	Count  int64  `json:"count"`  // rows, monomials or bytes crossing the boundary

	cpu0 time.Duration // process CPU clock when the span opened
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run shares code with the traced one.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the id begin returns on a nil tracer.
const noSpan = -1

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(name string) int { return t.begin(noSpan, rootLayer, name) }

// begin opens a span under parent (noSpan starts a new operation).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return noSpan
	}
	c := cpuNow()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Layer: layer, Parent: parent, cpu0: c}
	if parent == noSpan {
		t.ops++
		s.Op = t.ops
	} else {
		s.Op = t.spans[parent].Op
	}
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes a span, recording the work that crossed the boundary.
func (t *tracer) end(id int, count int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	c := cpuNow()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.CPU, s.Count = now, int64(c-s.cpu0), int64(count)
}

// rootLayer names the spans the benchmark opens around a whole operation;
// their self time is harness glue, not a layer of the program.
const rootLayer = "benchmark"

// duration is the span's length on the given clock.
func (s span) duration(c clock) time.Duration {
	if c == wallClock {
		return time.Duration(s.End - s.Start)
	}
	return time.Duration(s.CPU)
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (t *tracer) selfTimes(c clock) []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.duration(c)
		if s.Parent != noSpan {
			self[s.Parent] -= s.duration(c)
		}
	}
	return self
}

// composed sums, over the operations recorded from span index first on,
// the wall time their layer spans account for (each root's direct
// children) and the wall time of the whole operations. Wall, because the
// CPU clock ticks in microseconds and the shortest operations last a few.
func (t *tracer) composed(first int) (layers, whole time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans[first:] {
		switch {
		case s.Parent == noSpan:
			whole += s.duration(wallClock)
		case t.spans[s.Parent].Parent == noSpan:
			layers += s.duration(wallClock)
		}
	}
	return layers, whole
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
