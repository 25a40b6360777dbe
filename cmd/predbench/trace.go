package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The traced pass records spans from the benchmark's own files: a harness
// span per op and per statement, with the spans the engine already emits
// through obs.WithTrace (parse, bind, plan, op:<operator>, materialize)
// re-parented beneath the statement that produced them. Spans stay in
// memory and are written out once, when the workload ends.

// span is one recorded interval. Offsets are microseconds since the
// recorder was created; Op is shared by every span of one op.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = top level
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder collects the spans of one traced pass. The zero id is reserved
// for "no parent". Safe for concurrent clients.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(parent, op int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUS: float64(start.Sub(r.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(r.t0).Nanoseconds()) / 1e3,
	})
	return id
}

// opRec is the recorder handle one op runs with. A nil *opRec is the
// untraced pass: every method is a no-op, so workload code is written once.
type opRec struct {
	r      *recorder
	op     int
	parent int // the op's own span
	stmts  []stmtTiming
}

// stmtTiming keeps what coverage accounting needs per statement: its wall
// time and the sum of the engine spans harvested beneath it.
type stmtTiming struct {
	wall, covered time.Duration
}

// beginOp reserves the op's span so children can name it as their parent;
// finish fills in the interval once the op's own timers have stopped.
func (r *recorder) beginOp(op int) *opRec {
	if r == nil {
		return nil
	}
	now := time.Now()
	return &opRec{r: r, op: op, parent: r.add(0, op, "op", now, now)}
}

func (o *opRec) finish(start time.Time, elapsed time.Duration) {
	if o == nil {
		return
	}
	o.r.mu.Lock()
	s := &o.r.spans[o.parent-1]
	s.StartUS = float64(start.Sub(o.r.t0).Nanoseconds()) / 1e3
	s.EndUS = s.StartUS + float64(elapsed.Nanoseconds())/1e3
	o.r.mu.Unlock()
}

// statement attaches a fresh obs trace to ctx for one statement. done
// records the statement's harness span and harvests the engine's spans
// under it.
func (o *opRec) statement(ctx context.Context) (context.Context, func(wall time.Duration)) {
	if o == nil {
		return ctx, func(time.Duration) {}
	}
	base := time.Now()
	tr := obs.NewTrace()
	return obs.WithTrace(ctx, tr), func(wall time.Duration) {
		o.harvest(base, wall, wall, tr.Spans())
	}
}

// harvest records one statement — wall is what the harness clocked around
// it — and re-parents beneath it the spans the program emitted for it,
// whose offsets are relative to base. inside is the time those spans are
// expected to account for: the statement's wall time in process, the
// server's own elapsed time over HTTP.
func (o *opRec) harvest(base time.Time, wall, inside time.Duration, spans []obs.SpanJSON) {
	if o == nil {
		return
	}
	id := o.r.add(o.parent, o.op, "stmt", base, base.Add(wall))
	var covered time.Duration
	for _, s := range spans {
		start := base.Add(time.Duration(s.StartUS) * time.Microsecond)
		dur := time.Duration(s.DurUS) * time.Microsecond
		o.r.add(id, o.op, s.Name, start, start.Add(dur))
		covered += dur
	}
	o.stmts = append(o.stmts, stmtTiming{wall: inside, covered: covered})
}

// mark records a harness-side interval (catalog open, HTTP exchange, …)
// directly under the op.
func (o *opRec) mark(name string, start time.Time, d time.Duration) {
	if o != nil {
		o.r.add(o.parent, o.op, name, start, start.Add(d))
	}
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover (children of one parent never overlap here:
// the engine's operators run one after another).
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndUS - s.StartUS
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.EndUS - s.StartUS
		}
	}
	return self
}

// stmtCount is the pseudo-name under which perOpSums reports how many
// statements each op issued.
const stmtCount = "stmt#"

// perOpSums totals span durations (ms) by name within each op and returns,
// for every name, the per-op sums in op order, plus the number of ops.
func perOpSums(spans []span) (map[string][]float64, int) {
	ops := map[int]map[string]float64{}
	var order []int
	for _, s := range spans {
		m, ok := ops[s.Op]
		if !ok {
			m = map[string]float64{}
			ops[s.Op] = m
			order = append(order, s.Op)
		}
		m[s.Name] += (s.EndUS - s.StartUS) / 1e3
		if s.Name == "stmt" {
			m[stmtCount]++
		}
	}
	sort.Ints(order)
	out := map[string][]float64{}
	for i, op := range order {
		for name, v := range ops[op] {
			if out[name] == nil {
				out[name] = make([]float64, len(order))
			}
			out[name][i] = v
		}
	}
	return out, len(order)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// traceFile is what the traced pass leaves under out/.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Spans    []span             `json:"spans"`
	SelfUS   map[string]float64 `json:"self_us_by_name"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	spans := r.snapshot()
	byName := map[string]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans, SelfUS: byName})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
