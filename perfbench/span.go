package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around a public call into the program.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // request (or step) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. A Recorder belongs to
// one goroutine.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder returns a recorder whose timestamps count from epoch; pass
// one epoch to every recorder of a run so their spans merge on one axis.
func NewRecorder(epoch time.Time) *Recorder { return &Recorder{epoch: epoch} }

// Begin opens a span and returns its id.
func (r *Recorder) Begin(name string, parent, req int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	r.spans[id].End = int64(time.Since(r.epoch))
}

// Add records a span whose interval was measured elsewhere and returns its
// id.
func (r *Recorder) Add(name string, parent, req int, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes returns, for every span id of spans (ids are indexes), its
// duration minus the durations of its direct children. The children of a
// span must run one after another inside it.
func SelfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	return self
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
