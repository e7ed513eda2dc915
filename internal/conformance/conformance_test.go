package conformance

import (
	"runtime"
	"testing"
	"time"
)

// TestConformance runs the full suite against every stack shape. CI runs
// this with -race -count=2.
func TestConformance(t *testing.T) {
	for _, shape := range StackNames {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			s, err := BuildStack(shape)
			if err != nil {
				t.Fatalf("building stack: %v", err)
			}
			defer s.Close()
			for _, c := range Checks() {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					if err := c.Fn(s); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestTeardownLeavesNoGoroutines builds every shape, opens two processes on
// it and closes the stack: every goroutine the stack started, on any of its
// nodes, must end.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	for _, shape := range StackNames {
		baseline := runtime.NumGoroutine()
		s, err := BuildStack(shape)
		if err != nil {
			t.Fatalf("%s: building stack: %v", shape, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.NewProcess(); err != nil {
				t.Fatalf("%s: process %d: %v", shape, i, err)
			}
		}
		s.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines left after Close", shape, n-baseline)
		}
	}
}
