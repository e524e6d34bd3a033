package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spans records host-time spans around the benchmark's own calls into
// the simulator's layers. Each span has a name, a start and an end, the
// span that caused it, and the operation it belongs to. Durations are
// aggregated per name for every span; the first maxRawSpans spans are
// also kept whole and written out when the run ends.
//
// A nil *spans is the untraced mode: every method is a no-op.
type spans struct {
	epoch time.Time
	op    int // operation the spans belong to (-1: set-up)
	stack []openSpan
	raw   []rawSpan
	stats map[string]*spanStat
}

type openSpan struct {
	name  string
	start time.Time
	id    int
}

type rawSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // -1 for set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

type spanStat struct {
	count int
	total time.Duration
}

// maxRawSpans bounds the spans kept whole: the per-reference spans of
// scatter would otherwise fill memory, and their aggregate is what the
// per-layer metrics use.
const maxRawSpans = 20000

func newSpans() *spans {
	return &spans{epoch: time.Now(), op: -1, stats: map[string]*spanStat{}}
}

// begin opens a span; end closes the innermost open span.
func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	id := -1
	if len(s.raw) < maxRawSpans {
		id = len(s.raw)
		parent := -1
		if n := len(s.stack); n > 0 {
			parent = s.stack[n-1].id
		}
		s.raw = append(s.raw, rawSpan{ID: id, Parent: parent, Op: s.op, Name: name})
	}
	s.stack = append(s.stack, openSpan{name: name, start: time.Now(), id: id})
}

func (s *spans) end() { s.endN(1) }

// endN closes the innermost open span, which covered n calls of the
// same kind; the span's per-call mean divides by n. A batch span keeps
// the spans' own cost out of calls far shorter than a clock read.
func (s *spans) endN(n int) {
	if s == nil {
		return
	}
	now := time.Now()
	o := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	st := s.stats[o.name]
	if st == nil {
		st = &spanStat{}
		s.stats[o.name] = st
	}
	st.count += n
	st.total += now.Sub(o.start)
	if o.id >= 0 {
		s.raw[o.id].Start = o.start.Sub(s.epoch).Nanoseconds()
		s.raw[o.id].End = now.Sub(s.epoch).Nanoseconds()
	}
}

// total returns how many calls the recorded spans covered.
func (s *spans) total() int {
	n := 0
	for _, st := range s.stats {
		n += st.count
	}
	return n
}

// setOp names the operation the following spans belong to.
func (s *spans) setOp(i int) {
	if s != nil {
		s.op = i
	}
}

// mean returns the mean duration of the named span in the given unit,
// and 0 when the span never ran.
func (s *spans) mean(name string, unit time.Duration) float64 {
	st := s.stats[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.total) / float64(st.count) / float64(unit)
}

// write saves the recorded spans as JSON lines under dir.
func (s *spans) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range s.raw {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
