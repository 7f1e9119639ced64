package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsUnionOfParallelChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: ms(0), end: ms(100)},
		// Two children running in parallel, overlapping on [40, 60]: they
		// cover 80 ms of the parent, not the 100 ms their durations add
		// to.
		{id: 2, parent: 1, name: "probe", start: ms(10), end: ms(60)},
		{id: 3, parent: 1, name: "probe", start: ms(40), end: ms(90)},
		// A grandchild counts against its own parent only.
		{id: 4, parent: 2, name: "leaf", start: ms(20), end: ms(30)},
		// A child outliving its parent is clipped to the parent.
		{id: 5, parent: 3, name: "leaf", start: ms(80), end: ms(95)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":  ms(20),          // 100 - |[10, 90]|
		"probe": ms(40) + ms(40), // 50 - 10, and 50 - |[80, 90]|
		"leaf":  ms(10) + ms(15), // leaves keep their whole duration
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestUnionLengthMergesTouchingAndNested(t *testing.T) {
	iv := [][2]time.Duration{{ms(5), ms(10)}, {ms(0), ms(5)}, {ms(2), ms(3)}, {ms(20), ms(25)}}
	if got := unionLength(iv); got != ms(15) {
		t.Fatalf("union = %v, want 15ms", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Fatalf("union of nothing = %v", got)
	}
}
