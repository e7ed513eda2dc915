package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Error("zero value not zero")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 6 {
		t.Errorf("Value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value = %d, want 8000", c.Value())
	}
}

func TestRegistry(t *testing.T) {
	var r Registry
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	r.Counter("b").Inc()
	snap := r.Snapshot()
	if snap["a"] != 4 || snap["b"] != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
	s := r.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "b") {
		t.Errorf("String = %q", s)
	}
	r.ResetAll()
	if r.Counter("a").Value() != 0 {
		t.Error("ResetAll did not clear")
	}
}
