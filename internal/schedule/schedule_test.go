package schedule

import (
	"strings"
	"testing"
	"time"
)

func entry(from, to, typ string, send, deadline time.Duration) Entry {
	return Entry{From: from, To: to, Type: typ, SendAt: send, Deadline: deadline}
}

func TestLogAppendResolve(t *testing.T) {
	l := NewLog()
	i := l.Append(entry("a", "b", "m", 0, time.Millisecond))
	j := l.Append(entry("b", "a", "m", time.Millisecond, 3*time.Millisecond))
	if i != 0 || j != 1 || l.Len() != 2 {
		t.Fatalf("indices %d %d, len %d", i, j, l.Len())
	}
	l.Resolve(i, Delivered)
	l.Resolve(j, DroppedDeliver)
	es := l.Entries()
	if es[0].Verdict != Delivered || es[1].Verdict != DroppedDeliver {
		t.Errorf("verdicts = %v %v", es[0].Verdict, es[1].Verdict)
	}
	if es[1].Delay() != 2*time.Millisecond {
		t.Errorf("delay = %v, want 2ms", es[1].Delay())
	}
	if l.DeliveredCount() != 1 {
		t.Errorf("delivered = %d, want 1", l.DeliveredCount())
	}
	if s := l.String(); !strings.Contains(s, "dropped@deliver") || !strings.Contains(s, "a → b") {
		t.Errorf("render:\n%s", s)
	}
}

// TestCursorStreamMatching pins the per-stream alignment: sends match the
// k-th logged entry of their own (from, to, type) stream, so divergence on
// one stream does not shift every other stream.
func TestCursorStreamMatching(t *testing.T) {
	l := NewLog()
	l.Append(entry("a", "b", "x", 0, 1*time.Millisecond))
	l.Append(entry("a", "c", "x", 0, 2*time.Millisecond))
	l.Append(entry("a", "b", "x", 0, 3*time.Millisecond))
	c := NewCursor(&Replay{Log: l})

	if d, ok := c.Next("a", "b", "x"); !ok || d.Delay != 1*time.Millisecond {
		t.Errorf("a→b #1: %v %v", d, ok)
	}
	if d, ok := c.Next("a", "b", "x"); !ok || d.Delay != 3*time.Millisecond {
		t.Errorf("a→b #2: %v %v", d, ok)
	}
	if _, ok := c.Next("a", "b", "x"); ok {
		t.Error("a→b stream should be exhausted")
	}
	// The a→c stream is untouched by a→b's consumption.
	if d, ok := c.Next("a", "c", "x"); !ok || d.Delay != 2*time.Millisecond {
		t.Errorf("a→c: %v %v", d, ok)
	}
	// Unrecorded streams report no match (fallback to the seeded draw).
	if _, ok := c.Next("b", "a", "x"); ok {
		t.Error("unrecorded stream matched")
	}
}

func TestNilCursorAndNilSpec(t *testing.T) {
	if c := NewCursor(nil); c != nil {
		t.Error("NewCursor(nil) != nil")
	}
	var c *Cursor
	if _, ok := c.Next("a", "b", "x"); ok {
		t.Error("nil cursor matched")
	}
	if c := NewCursor(&Replay{}); c != nil {
		t.Error("NewCursor with nil log != nil")
	}
}

// TestVerbatimHonorsRecordedSuppressions pins the nil-Edit contract: a
// log that contains Suppressed entries round-trips through an edit-free
// replay with those entries still suppressed — which is what makes
// MinTrace.Log a self-contained reproduction.
func TestVerbatimHonorsRecordedSuppressions(t *testing.T) {
	l := NewLog()
	l.Append(entry("a", "b", "x", 0, 1*time.Millisecond))
	i := l.Append(entry("a", "b", "x", 0, 2*time.Millisecond))
	l.Resolve(i, Suppressed)
	c := NewCursor(&Replay{Log: l})
	if d, _ := c.Next("a", "b", "x"); d.Suppress {
		t.Error("delivered entry suppressed under verbatim replay")
	}
	if d, _ := c.Next("a", "b", "x"); !d.Suppress {
		t.Error("recorded suppression lost under verbatim replay")
	}
}

// TestSuppressSet pins the shrinker's edit: new drops are suppressed,
// prior-round suppressions recorded in the log stay suppressed, everything
// else replays verbatim.
func TestSuppressSet(t *testing.T) {
	l := NewLog()
	l.Append(entry("a", "b", "x", 0, 1*time.Millisecond))      // kept
	l.Append(entry("a", "b", "x", 0, 2*time.Millisecond))      // newly dropped
	i := l.Append(entry("a", "b", "x", 0, 3*time.Millisecond)) // prior round
	l.Resolve(i, Suppressed)                                   //
	c := NewCursor(&Replay{Log: l, Edit: SuppressSet(map[int]bool{1: true})})

	if d, _ := c.Next("a", "b", "x"); d.Suppress {
		t.Error("entry 0 suppressed")
	}
	if d, _ := c.Next("a", "b", "x"); !d.Suppress {
		t.Error("entry 1 not suppressed")
	}
	if d, _ := c.Next("a", "b", "x"); !d.Suppress {
		t.Error("prior-round suppression not preserved")
	}
}
