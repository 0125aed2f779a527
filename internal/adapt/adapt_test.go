package adapt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Min != 1 || cfg.Max != DefaultMax {
		t.Fatalf("default bounds [%d,%d], want [1,%d]", cfg.Min, cfg.Max, DefaultMax)
	}
	if cfg.Initial < cfg.Min || cfg.Initial > cfg.Max {
		t.Fatalf("default initial %d outside [%d,%d]", cfg.Initial, cfg.Min, cfg.Max)
	}
	if cfg.Backoff <= 0 || cfg.Backoff >= 1 {
		t.Fatalf("default backoff %v not in (0,1)", cfg.Backoff)
	}
	if cfg.Hysteresis < 1 || cfg.Step < 1 {
		t.Fatalf("default hysteresis %d / step %d", cfg.Hysteresis, cfg.Step)
	}
	// Inverted and out-of-range values are repaired, not propagated.
	fixed := Config{Min: 10, Max: 5, Initial: 100, Backoff: 7}.withDefaults()
	if fixed.Max != fixed.Min {
		t.Fatalf("inverted bounds resolved to [%d,%d]", fixed.Min, fixed.Max)
	}
	if fixed.Initial != fixed.Max {
		t.Fatalf("initial %d not clamped to %d", fixed.Initial, fixed.Max)
	}
	if fixed.Backoff != 0.5 {
		t.Fatalf("backoff 7 resolved to %v, want default 0.5", fixed.Backoff)
	}
}

// overload is a sample that trips the shrink classifier; contended trips
// the wire-contention grow accelerator; quiet trips neither.
var (
	overload  = Sample{Latency: time.Second}
	contended = Sample{Frames: 200, Writes: 100}
	quiet     = Sample{Frames: 100, Writes: 100}
)

func TestAIMDGrowShrink(t *testing.T) {
	c := New(Config{Min: 1, Max: 64, Initial: 16, Step: 8, Backoff: 0.5, Hysteresis: 2})
	// Two quiet windows = one additive probe step.
	if d := c.Observe(quiet); d != Hold {
		t.Fatalf("first quiet window: %v, want hold", d)
	}
	if d := c.Observe(quiet); d != Grow {
		t.Fatalf("second quiet window: %v, want grow", d)
	}
	if got := c.Size(); got != 24 {
		t.Fatalf("size after grow = %d, want 24", got)
	}
	// A contended window counts double: one window suffices after a reset.
	if d := c.Observe(contended); d != Grow {
		t.Fatalf("contended window: %v, want grow", d)
	}
	if got := c.Size(); got != 32 {
		t.Fatalf("size after contended grow = %d, want 32", got)
	}
	// Overload shrinks multiplicatively after the hysteresis streak.
	if d := c.Observe(overload); d != Hold {
		t.Fatalf("first overloaded window: %v, want hold", d)
	}
	if d := c.Observe(overload); d != Shrink {
		t.Fatalf("second overloaded window: %v, want shrink", d)
	}
	if got := c.Size(); got != 16 {
		t.Fatalf("size after shrink = %d, want 16", got)
	}
	up, down, holds := c.Adjustments()
	if up != 2 || down != 1 || holds != 2 {
		t.Fatalf("adjustments = (%d,%d,%d), want (2,1,2)", up, down, holds)
	}
}

func TestHysteresisInterruptedStreak(t *testing.T) {
	c := New(Config{Min: 1, Max: 64, Initial: 32, Step: 8, Backoff: 0.5, Hysteresis: 3})
	// Two overloaded windows, then a quiet one: the shrink streak resets
	// and no decision fires.
	c.Observe(overload)
	c.Observe(overload)
	c.Observe(quiet)
	if got := c.Size(); got != 32 {
		t.Fatalf("size after interrupted streak = %d, want 32", got)
	}
	// The quiet window above started a grow streak of 1; two more
	// overloaded windows must not shrink either (streak 2 < 3).
	c.Observe(overload)
	c.Observe(overload)
	if got := c.Size(); got != 32 {
		t.Fatalf("size after second partial streak = %d, want 32", got)
	}
	c.Observe(overload)
	if got := c.Size(); got != 16 {
		t.Fatalf("size after full streak = %d, want 16", got)
	}
}

func TestBoundsClampToHold(t *testing.T) {
	c := New(Config{Min: 4, Max: 8, Initial: 8, Step: 8, Backoff: 0.5, Hysteresis: 1})
	if d := c.Observe(quiet); d != Hold {
		t.Fatalf("grow at Max: %v, want hold", d)
	}
	if got := c.Size(); got != 8 {
		t.Fatalf("size grew past Max: %d", got)
	}
	c.Observe(overload) // 8 -> 4
	if d := c.Observe(overload); d != Hold {
		t.Fatalf("shrink at Min: %v, want hold", d)
	}
	if got := c.Size(); got != 4 {
		t.Fatalf("size shrank past Min: %d", got)
	}
}

func TestSizes(t *testing.T) {
	cfg := Config{Min: 1, Max: 32, Initial: 4, Step: 5, Backoff: 0.4}
	sizes := cfg.Sizes()
	seen := map[int]bool{}
	for i, s := range sizes {
		if s < 1 || s > 32 {
			t.Fatalf("size %d outside [1,32]", s)
		}
		if seen[s] {
			t.Fatalf("duplicate size %d", s)
		}
		seen[s] = true
		if i > 0 && sizes[i-1] >= s {
			t.Fatalf("sizes not ascending: %v", sizes)
		}
	}
	for _, must := range []int{4, 9, 32, 1} { // initial, one grow, max, min-reachable
		if !seen[must] {
			t.Fatalf("reachable size %d missing from %v", must, sizes)
		}
	}
	// Closure property: every size's grow and shrink successors are in the set.
	rc := cfg.withDefaults()
	for _, s := range sizes {
		if !seen[growSize(s, rc.Step, rc.Max)] || !seen[shrinkSize(s, rc.Backoff, rc.Min)] {
			t.Fatalf("size set %v not closed under transitions at %d", sizes, s)
		}
	}
}

func TestSetConfigReclamps(t *testing.T) {
	c := New(Config{Min: 1, Max: 512, Initial: 256})
	c.SetConfig(Config{Min: 1, Max: 64})
	if got := c.Size(); got != 64 {
		t.Fatalf("size after narrowing SetConfig = %d, want 64", got)
	}
	if got := c.Config().Max; got != 64 {
		t.Fatalf("config Max = %d, want 64", got)
	}
}

func TestSizeErrorMessage(t *testing.T) {
	err := error(&SizeError{Op: "x: Y", Size: -3})
	var se *SizeError
	if !errors.As(err, &se) || se.Size != -3 {
		t.Fatalf("errors.As failed on %v", err)
	}
	if want := "x: Y: invalid size -3 (must be >= 1)"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
}

// TestObserveAllocs pins the acceptance criterion: the decision path —
// Observe plus the hot-path Size read — performs zero heap allocations
// per window, with instruments registered and an (unsampled-stride)
// tracer attached.
func TestObserveAllocs(t *testing.T) {
	c := New(Config{})
	c.Instrument(obs.NewRegistry())
	// Stride 1<<30: the warm-up call eats the one sampled decision, so
	// every measured iteration takes the unsampled (nil-span) path.
	c.Trace(obs.NewTracer(1<<30, 0))
	samples := [3]Sample{quiet, contended, overload}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		c.Observe(samples[i%3])
		_ = c.Size()
		i++
	})
	if got != 0 {
		t.Fatalf("decision path allocates %.1f allocs/op, want 0", got)
	}
}

func TestObserveConcurrentWithSetConfig(t *testing.T) {
	c := New(Config{Min: 1, Max: 128, Hysteresis: 1})
	c.Instrument(obs.NewRegistry())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (i + g) % 3 {
				case 0:
					c.Observe(quiet)
				case 1:
					c.Observe(overload)
				default:
					c.SetConfig(Config{Min: 1, Max: 64 + g})
				}
				if s := c.Size(); s < 1 || s > 128 {
					panic(fmt.Sprintf("size %d escaped bounds", s))
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s := c.Size(); s < 1 || s > 128 {
		t.Fatalf("final size %d outside every configured bound", s)
	}
}

// TestSizeGaugeTruthfulUnderConcurrentSetConfig races Observe against
// SetConfig and checks, once they quiesce, that the adapt.size gauge
// reports Size() and that Size() lies within the config in force. Each
// racer ends on a SetConfig that clamps the size down, so a SetConfig that
// skips the gauge fails every trial.
func TestSizeGaugeTruthfulUnderConcurrentSetConfig(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		reg := obs.NewRegistry()
		c := New(Config{Min: 1, Max: 128, Hysteresis: 1})
		c.Instrument(reg)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					switch (i + g + trial) % 3 {
					case 0, 1:
						c.Observe(quiet)
					default:
						c.Observe(overload)
						c.SetConfig(Config{Min: 1, Max: 64 + g + i%5})
					}
				}
				c.SetConfig(Config{Min: 1, Max: 2 + g})
			}(g)
		}
		wg.Wait()
		size := c.Size()
		if got := reg.Snapshot().Gauges["adapt.size"]; got != int64(size) {
			t.Fatalf("trial %d: adapt.size gauge %d, Size() %d", trial, got, size)
		}
		if cfg := c.Config(); size < cfg.Min || size > cfg.Max {
			t.Fatalf("trial %d: size %d outside the config in force [%d,%d]", trial, size, cfg.Min, cfg.Max)
		}
	}
}

func TestPoller(t *testing.T) {
	c := New(Config{Min: 1, Max: 64, Initial: 8, Step: 8, Hysteresis: 1})
	var calls atomic.Int64
	p := NewPoller(c, 100*time.Microsecond, func() Sample {
		calls.Add(1)
		return quiet
	})
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	after := calls.Load()
	if after < 3 {
		t.Fatalf("poller sampled %d times, want >= 3", after)
	}
	if got := c.Size(); got <= 8 {
		t.Fatalf("quiet windows did not probe upward: size %d", got)
	}
	time.Sleep(2 * time.Millisecond)
	if calls.Load() != after {
		t.Fatalf("poller sampled after Stop: %d -> %d", after, calls.Load())
	}
}
