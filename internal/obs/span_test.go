package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteTreeGolden renders a representative trace — the shape the
// study pipeline produces — against a checked-in golden file. Update
// with: go test ./internal/obs -run WriteTreeGolden -update
func TestWriteTreeGolden(t *testing.T) {
	root := NewTrace("study")
	sg := root.Child("portal:SG")
	sg.AddTasks(56)
	sg.AddBytes(1203441)
	prof := sg.Child("profile")
	prof.AddTasks(56)
	prof.AddItems(212)
	funnel := prof.Child("funnel")
	funnel.AddTasks(3)
	keys := sg.Child("keys+fd")
	keys.AddTasks(41)
	keys.AddItems(77)
	ca := root.Child("portal:CA")
	ca.AddTasks(131)
	ca.Child("profile").AddItems(504)
	join := ca.Child("join")
	join.AddTasks(131)
	empty := root.Child("portal:UK")
	_ = empty // a span with no attributes renders bare

	var b strings.Builder
	root.WriteTree(&b)
	got := b.String()

	golden := filepath.Join("testdata", "span_tree.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("tree mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSpanCountersConcurrent checks that counter updates from many
// goroutines accumulate exactly: spans only require single-goroutine
// child creation, not single-goroutine counting.
func TestSpanCountersConcurrent(t *testing.T) {
	s := NewTrace("root").Child("stage")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.AddTasks(1)
				s.AddItems(2)
				s.AddBytes(3)
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	s.WriteTree(&b)
	want := "stage [tasks=8000 items=16000 bytes=24000]\n"
	if b.String() != want {
		t.Errorf("tree = %q, want %q", b.String(), want)
	}
}

// TestTimedTrace checks that a clock-carrying trace records wall time
// on End and renders it, with any notes — and that an unclocked trace
// renders neither, even when AddDuration is not used.
func TestTimedTrace(t *testing.T) {
	tick := time.Unix(1000, 0)
	clock := func() time.Time {
		tick = tick.Add(250 * time.Millisecond)
		return tick
	}
	root := NewTimedTrace("run", clock)
	c := root.Child("stage")
	c.End() // one tick between Child and End: 250ms
	if !c.Timed() {
		t.Fatal("child of a timed trace must be timed")
	}
	var b strings.Builder
	c.WriteTree(&b)
	if want := "stage [wall=0.250s]\n"; b.String() != want {
		t.Errorf("timed tree = %q, want %q", b.String(), want)
	}

	c.Note("counted", 3)
	c.Note("counted", 4)
	b.Reset()
	c.WriteTree(&b)
	if want := "stage [wall=0.250s counted=7]\n"; b.String() != want {
		t.Errorf("timed tree with a note = %q, want %q", b.String(), want)
	}

	plain := NewTrace("run").Child("stage")
	plain.End()
	plain.AddTasks(1)
	plain.Note("counted", 5) // dropped: the tree is deterministic
	b.Reset()
	plain.WriteTree(&b)
	if want := "stage [tasks=1]\n"; b.String() != want {
		t.Errorf("deterministic tree = %q, want %q", b.String(), want)
	}
}

// TestAddDuration checks that externally measured durations flow into
// unclocked spans — the contract that lets deterministic code attribute
// time handed to it without ever reading a clock.
func TestAddDuration(t *testing.T) {
	s := NewTrace("root").Child("io")
	s.AddDuration(1200 * time.Millisecond)
	s.AddDuration(34 * time.Millisecond)
	s.AddDuration(-time.Second) // ignored
	var b strings.Builder
	s.WriteTree(&b)
	if want := "io [wall=1.234s]\n"; b.String() != want {
		t.Errorf("tree = %q, want %q", b.String(), want)
	}
}
