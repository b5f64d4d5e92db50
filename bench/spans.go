package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded from bench/ only, around exported calls; spans inside the
// program are a later change.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since process start
	EndNS   int64  `json:"end_ns"`
	// Count carries the work done inside the span where one was counted
	// at the same boundary (events executed, ops, records).
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory and writes them as JSONL at exit. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
// It is used from the goroutine that runs the repetition only.
type tracer struct {
	spans []span
	stack []int // open span ids, innermost last
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(processStart))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) { t.endCount(id, 0) }

func (t *tracer) endCount(id int, count int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(processStart))
	s.Count = count
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
