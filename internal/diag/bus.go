package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressSchemaID identifies the progress-event JSONL stream format
// (validated by scripts/tracecheck).
const ProgressSchemaID = "rewire-progress-v1"

// Event is one progress record. Events are coarse — sweep, attempt and
// amendment-round boundaries, never per-placement — so a long compile
// emits tens to hundreds of them, not millions.
type Event struct {
	// Seq is the bus-assigned monotonic sequence number (1-based).
	Seq uint64 `json:"seq"`
	// MS is milliseconds since the bus was created.
	MS float64 `json:"ms"`
	// Type is the event kind: run_start, ii_start, ii_end,
	// attempt_start, round, attempt_end, run_end.
	Type string `json:"type"`

	Mapper string `json:"mapper,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	Arch   string `json:"arch,omitempty"`
	MII    int    `json:"mii,omitempty"`

	II      int    `json:"ii,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Round   int    `json:"round,omitempty"`
	Ill     int    `json:"ill,omitempty"`
	Outcome string `json:"outcome,omitempty"` // ok, failed, cancelled
	// Lane names the portfolio lane (backend) an event belongs to.
	// Empty outside portfolio runs.
	Lane string `json:"lane,omitempty"`
}

// Outcome is the progress-event outcome label of a finished attempt:
// "ok", else "cancelled" when it was torn down, else "failed".
func Outcome(ok, cancelled bool) string {
	switch {
	case ok:
		return "ok"
	case cancelled:
		return "cancelled"
	default:
		return "failed"
	}
}

// Bus is a bounded, drop-oldest progress-event bus. Producers (the
// mappers and the sweep engine) Publish; consumers either Subscribe for
// a live stream (the SSE endpoint) or snapshot the retained ring with
// Events (the JSONL export). A nil *Bus is the disabled bus: Publish is
// one pointer check and zero allocations, so instrumentation points
// need no guards. All methods are safe for concurrent use.
type Bus struct {
	mu        sync.Mutex
	buf       []Event // fixed-capacity ring
	head      int     // index of the oldest retained event
	n         int     // retained count
	seq       uint64
	dropped   uint64
	published uint64
	start     time.Time
	subs      map[int]chan Event
	nextSub   int
	closed    bool
}

// DefaultBusCapacity bounds the retained ring when the caller passes 0.
const DefaultBusCapacity = 1024

// NewBus returns an enabled bus retaining at most capacity events
// (drop-oldest beyond that; 0 selects DefaultBusCapacity).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	return &Bus{buf: make([]Event, capacity), start: time.Now(), subs: map[int]chan Event{}}
}

// Enabled reports whether the bus is live.
func (b *Bus) Enabled() bool { return b != nil }

// Publish stamps the event with its sequence number and timestamp,
// retains it (dropping the oldest retained event when full), and
// fans it out to subscribers (non-blocking: a slow subscriber loses
// events rather than stalling the mapper). Safe on nil.
func (b *Bus) Publish(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	b.published++
	e.Seq = b.seq
	e.MS = float64(time.Since(b.start).Microseconds()) / 1e3
	if b.n == len(b.buf) {
		b.head = (b.head + 1) % len(b.buf)
		b.n--
		b.dropped++
	}
	b.buf[(b.head+b.n)%len(b.buf)] = e
	b.n++
	for _, ch := range b.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop rather than block the mapper
		}
	}
	b.mu.Unlock()
}

// Subscribe returns a channel that first replays every retained event
// and then streams new ones, plus a cancel func that unregisters (and
// closes) the channel. The channel is closed after the bus closes once
// the retained replay and any buffered live events are drained.
func (b *Bus) Subscribe(buffer int) (<-chan Event, func()) {
	if b == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	b.mu.Lock()
	snapshot := b.retainedLocked()
	ch := make(chan Event, len(snapshot)+buffer+1)
	for _, e := range snapshot {
		ch <- e
	}
	if b.closed {
		close(ch)
		b.mu.Unlock()
		return ch, func() {}
	}
	id := b.nextSub
	b.nextSub++
	b.subs[id] = ch
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			if _, live := b.subs[id]; live {
				delete(b.subs, id)
				close(ch)
			}
			b.mu.Unlock()
		})
	}
	return ch, cancel
}

// Close marks the stream complete (typically right after the run_end
// event) and closes every subscriber channel. Publish after Close is a
// no-op. Safe on nil; idempotent.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for id, ch := range b.subs {
			delete(b.subs, id)
			close(ch)
		}
	}
	b.mu.Unlock()
}

// Events snapshots the retained ring, oldest first. Safe on nil.
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retainedLocked()
}

func (b *Bus) retainedLocked() []Event {
	out := make([]Event, 0, b.n)
	for i := 0; i < b.n; i++ {
		out = append(out, b.buf[(b.head+i)%len(b.buf)])
	}
	return out
}

// Stats reports how many events were published and how many of the
// published events the drop-oldest ring has discarded. Safe on nil.
func (b *Bus) Stats() (published, dropped uint64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped
}

// WriteJSONL exports the retained events as a progress-event JSONL
// stream: line 1 is a meta record carrying the format ID, the published
// and dropped totals (so a validator can tell truncation from
// corruption), then one event per line in sequence order.
func (b *Bus) WriteJSONL(w io.Writer) error {
	if b == nil {
		return fmt.Errorf("diag: cannot export a disabled (nil) progress bus")
	}
	b.mu.Lock()
	events := b.retainedLocked()
	published, dropped := b.published, b.dropped
	b.mu.Unlock()
	enc := json.NewEncoder(w)
	meta := struct {
		Type      string `json:"type"` // "meta"
		Format    string `json:"format"`
		Events    int    `json:"events"`
		Published uint64 `json:"published"`
		Dropped   uint64 `json:"dropped"`
	}{Type: "meta", Format: ProgressSchemaID, Events: len(events), Published: published, Dropped: dropped}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
