package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary, recorded by the
// benchmark around its own calls into the program. All spans of one
// message (or one frame) share ID; Parent indexes the enclosing span in
// the same recording, -1 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// spanLog keeps spans in memory. begin/end nest like calls on one
// goroutine; add records a finished span directly (for spans assembled
// after the fact from timestamps taken on several goroutines).
type spanLog struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

func (l *spanLog) begin(name string, id uint64) {
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{ID: id, Name: name, Start: l.now(), Parent: parent})
	l.stack = append(l.stack, int32(len(l.spans)-1))
}

// end closes the innermost open span, renaming it when name is not empty
// (a receive learns its PDU kind only once the frame is decoded).
func (l *spanLog) end(name string) {
	i := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	l.spans[i].End = l.now()
	if name != "" {
		l.spans[i].Name = name
	}
}

func (l *spanLog) add(s span) int32 {
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children count once; a child's part outside
// the parent does not count.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return (parent.End - parent.Start) - covered
}

// spanTotals aggregates one recording by span name.
type spanTotals struct {
	Count int64
	Dur   int64 // summed durations
	Self  int64 // summed self times
}

func aggregate(spans []span, into map[string]*spanTotals) {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i, s := range spans {
		t := into[s.Name]
		if t == nil {
			t = &spanTotals{}
			into[s.Name] = t
		}
		t.Count++
		t.Dur += s.End - s.Start
		t.Self += selfTime(s, kids[int32(i)])
	}
}

// meanSelf is the mean self time of the named spans in ns, and whether
// any were recorded.
func meanSelf(t map[string]*spanTotals, name string) (float64, bool) {
	s := t[name]
	if s == nil || s.Count == 0 {
		return 0, false
	}
	return float64(s.Self) / float64(s.Count), true
}

// maxSpansWritten caps the spans one traced run writes out.
const maxSpansWritten = 20000

// writeSpans writes spans as JSON lines into dir, creating it.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	for _, s := range spans {
		if int(s.Parent) >= len(spans) {
			s.Parent = -1 // the parent fell past the cap
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
