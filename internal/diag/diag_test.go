package diag

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/stats"
)

// tinyRun builds a 2-node mapping session with one contested resource
// for the resolution tests.
func tinyRun(t *testing.T) (*dfg.Graph, *arch.CGRA, *mapping.Session) {
	t.Helper()
	g := dfg.New("tiny")
	a := g.AddNode("a", dfg.OpAdd)
	b := g.AddNode("b", dfg.OpAdd)
	g.AddEdge(a, b, 0)
	cgra := arch.New4x4(2)
	m := mapping.New(g, cgra, 2)
	sess := mapping.NewSession(m)
	if err := sess.PlaceNode(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.PlaceNode(b, 1, 1); err != nil {
		t.Fatal(err)
	}
	return g, cgra, sess
}

func TestDisabledNilZeroAlloc(t *testing.T) {
	var o *Observer
	var c *Collector
	var b *Bus
	if NewObserver(nil, nil, nil) != nil {
		t.Fatal("an observer without handles is not the disabled (nil) one")
	}
	n := testing.AllocsPerRun(1000, func() {
		run := o.RunStart(nil, nil, "", "", 0)
		run.IIStart(2, "")
		att := run.Lane("sa").AttemptStart(2, 0)
		att.Round(1, 3, true)
		att.Contend(mrrg.Node(7), mrrg.Net(1))
		att.End(false, false, 1, nil)
		run.IIEnd(2, "", "failed")
		run.RunEnd(stats.Result{}, "")
		run.Served(nil, nil, "", stats.Result{})
		b.Publish(Event{Type: "round", II: 2, Ill: 3})
	})
	if n != 0 {
		t.Fatalf("disabled diag path allocates %v allocs/op, want 0", n)
	}
	if c.Enabled() || b.Enabled() {
		t.Fatal("nil collector/bus report enabled")
	}
	if c.Report() != nil {
		t.Fatal("nil collector produced a report")
	}
	if _, err := parseNilBusExport(b); err == nil {
		t.Fatal("nil bus export should error")
	}
}

func parseNilBusExport(b *Bus) (int, error) {
	var buf bytes.Buffer
	return buf.Len(), b.WriteJSONL(&buf)
}

func TestCollectorReport(t *testing.T) {
	g, cgra, sess := tinyRun(t)
	defer sess.Close()
	c := NewCollector()
	run := NewObserver(nil, c, nil).RunStart(g, cgra, "pathfinder", "PF*", 2)

	att := run.AttemptStart(2, 0)
	att.Round(1, 2, false)
	att.Round(2, 1, false)
	fu := sess.Graph.FU(0, 0)
	att.Contend(fu, mrrg.Net(1))
	att.Contend(fu, mrrg.Net(0))
	att.Contend(fu, mrrg.Net(1))
	att.End(false, false, 0, sess)
	run.RunEnd(stats.Result{MII: 2}, "")

	r := c.Report()
	if r.Schema != SchemaID || r.Kernel != "tiny" || r.Mapper != "PF*" || r.Success {
		t.Fatalf("report header wrong: %+v", r)
	}
	if len(r.Attempts) != 1 || r.Attempts[0].Outcome != "failed" || r.Attempts[0].Rounds != 2 {
		t.Fatalf("attempt timeline wrong: %+v", r.Attempts)
	}
	if got := r.Attempts[0].Convergence; len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("convergence series wrong: %v", got)
	}
	if len(r.Contested) != 1 {
		t.Fatalf("want 1 contested resource, got %+v", r.Contested)
	}
	top := r.Contested[0]
	if top.TimesContested != 3 || top.Kind != "fu" || top.PE != 0 {
		t.Fatalf("contested resource wrong: %+v", top)
	}
	if len(top.Contenders) != 2 || top.Contenders[0] != "a" || top.Contenders[1] != "b" {
		t.Fatalf("contenders wrong: %v", top.Contenders)
	}
	if top.FinalOccupant != "a" {
		t.Fatalf("final occupant %q, want a (node a holds FU(0,0))", top.FinalOccupant)
	}
	// The single edge a->b is unrouted with both endpoints placed.
	if len(r.Unroutable) != 1 || r.Unroutable[0].From != "a" || r.Unroutable[0].To != "b" {
		t.Fatalf("unroutable list wrong: %+v", r.Unroutable)
	}
	s := r.Summary()
	if s.Outcome != "failed" || s.Unroutable != 1 || len(s.TopContested) != 1 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if !strings.Contains(s.TopContested[0], "3x") {
		t.Fatalf("summary top line %q lacks the contention count", s.TopContested[0])
	}
}

func TestReportMergesAcrossAttemptsTopK(t *testing.T) {
	g, cgra, sess := tinyRun(t)
	defer sess.Close()
	c := NewCollector()
	run := NewObserver(nil, c, nil).RunStart(g, cgra, "rewire", "Rewire", 2)
	fu := sess.Graph.FU(0, 0)
	for i := 0; i < 3; i++ {
		att := run.AttemptStart(2+i, 0)
		att.Contend(fu, mrrg.Net(0))
		att.Contend(sess.Graph.FU(i+1, 0), mrrg.Net(1))
		att.End(false, false, 0, sess)
	}
	r := c.ReportTopK(2)
	if len(r.Contested) != 2 {
		t.Fatalf("topK=2 kept %d resources", len(r.Contested))
	}
	if r.Contested[0].TimesContested != 3 {
		t.Fatalf("merge across attempts lost counts: %+v", r.Contested[0])
	}
	if len(r.Attempts) != 3 {
		t.Fatalf("timeline has %d attempts, want 3", len(r.Attempts))
	}
}

func TestStartIIConcurrent(t *testing.T) {
	g, cgra, sess := tinyRun(t)
	defer sess.Close()
	c := NewCollector()
	run := NewObserver(nil, c, nil).RunStart(g, cgra, "sa", "SA", 2)
	var wg sync.WaitGroup
	for ii := 2; ii < 10; ii++ {
		wg.Add(1)
		go func(ii int) {
			defer wg.Done()
			att := run.AttemptStart(ii, 0)
			att.Round(1, 1, false)
			att.Contend(mrrg.Node(ii), mrrg.Net(0))
			att.End(false, false, 0, nil)
		}(ii)
	}
	wg.Wait()
	r := c.Report()
	if len(r.Attempts) != 8 {
		t.Fatalf("want 8 attempts, got %d", len(r.Attempts))
	}
	for i := 1; i < len(r.Attempts); i++ {
		if r.Attempts[i].II < r.Attempts[i-1].II {
			t.Fatalf("timeline not II-sorted: %+v", r.Attempts)
		}
	}
}

func TestBusRetainDropOldest(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: "round", Round: i})
	}
	ev := b.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	if ev[0].Round != 6 || ev[3].Round != 9 {
		t.Fatalf("drop-oldest kept wrong window: %+v", ev)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("sequence not monotonic: %+v", ev)
		}
	}
	pub, dropped := b.Stats()
	if pub != 10 || dropped != 6 {
		t.Fatalf("stats = (%d, %d), want (10, 6)", pub, dropped)
	}
}

func TestBusSubscribeReplayAndLive(t *testing.T) {
	b := NewBus(8)
	b.Publish(Event{Type: "run_start"})
	b.Publish(Event{Type: "ii_start", II: 2})
	ch, cancel := b.Subscribe(8)
	defer cancel()
	b.Publish(Event{Type: "run_end", Outcome: "ok"})
	b.Close()
	var got []Event
	for e := range ch {
		got = append(got, e)
	}
	if len(got) != 3 {
		t.Fatalf("subscriber saw %d events, want 3 (2 replayed + 1 live): %+v", len(got), got)
	}
	if got[0].Type != "run_start" || got[2].Type != "run_end" {
		t.Fatalf("event order wrong: %+v", got)
	}
	// Subscribing after Close replays and closes immediately.
	ch2, cancel2 := b.Subscribe(0)
	defer cancel2()
	n := 0
	for range ch2 {
		n++
	}
	if n != 3 {
		t.Fatalf("post-close subscriber saw %d events, want 3", n)
	}
	// Publish after Close is a no-op.
	b.Publish(Event{Type: "round"})
	if len(b.Events()) != 3 {
		t.Fatal("publish after close retained an event")
	}
}

func TestBusWriteJSONL(t *testing.T) {
	b := NewBus(2)
	b.Publish(Event{Type: "run_start", Mapper: "rewire"})
	b.Publish(Event{Type: "ii_start", II: 3})
	b.Publish(Event{Type: "run_end", Outcome: "failed"})
	var buf bytes.Buffer
	if err := b.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no meta line")
	}
	var meta struct {
		Type, Format       string
		Events             int
		Published, Dropped uint64
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Type != "meta" || meta.Format != ProgressSchemaID || meta.Events != 2 || meta.Published != 3 || meta.Dropped != 1 {
		t.Fatalf("meta wrong: %+v", meta)
	}
	lines := 0
	var last Event
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if lines != 2 || last.Type != "run_end" || last.Seq != 3 {
		t.Fatalf("event lines wrong: n=%d last=%+v", lines, last)
	}
}

func TestConvergenceSeriesCapped(t *testing.T) {
	c := NewCollector()
	att := NewObserver(nil, c, nil).AttemptStart(2, 0)
	for i := 0; i < maxConvergence+100; i++ {
		att.Round(i, i, false)
	}
	att.End(false, false, 0, nil)
	r := c.Report()
	if r.Attempts[0].Rounds != maxConvergence+100 {
		t.Fatalf("rounds counter %d, want %d", r.Attempts[0].Rounds, maxConvergence+100)
	}
	if len(r.Attempts[0].Convergence) != maxConvergence {
		t.Fatalf("convergence series %d points, want cap %d", len(r.Attempts[0].Convergence), maxConvergence)
	}
}

func BenchmarkDiagDisabled(b *testing.B) {
	var o *Observer
	att := o.AttemptStart(2, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		att.Round(i, 1, true)
		att.Contend(mrrg.Node(3), mrrg.Net(1))
	}
}

func BenchmarkBusPublish(b *testing.B) {
	bus := NewBus(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Type: "round", II: 2, Round: i})
	}
}
