package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
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

func TestLoadCounters(t *testing.T) {
	type counters struct {
		Uptime float64
		A, B   uint64
	}
	src := counters{Uptime: 3}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				atomic.AddUint64(&src.A, 1)
				atomic.AddUint64(&src.B, 2)
				_ = LoadCounters(&src) // concurrent reads are race-free
			}
		}()
	}
	wg.Wait()
	if got := LoadCounters(&src); got != (counters{A: 4000, B: 8000}) {
		t.Errorf("LoadCounters = %+v, want A 4000, B 8000 and Uptime left zero", got)
	}
}
