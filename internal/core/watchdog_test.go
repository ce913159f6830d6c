package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fakeNow is a hand-advanced clock for driving Watchdog.Check without
// sleeps.
type fakeNow struct{ t time.Time }

func newFakeNow() *fakeNow {
	return &fakeNow{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}
func (f *fakeNow) now() time.Time          { return f.t }
func (f *fakeNow) advance(d time.Duration) { f.t = f.t.Add(d) }

// sweepWith registers a sweep of n tasks and returns its tracker.
func sweepWith(t *testing.T, n int) *metrics.SweepProgress {
	t.Helper()
	metrics.ResetProgress()
	t.Cleanup(metrics.ResetProgress)
	tasks := make([][2]string, n)
	for i := range tasks {
		tasks[i] = [2]string{"wl", "series"}
	}
	return metrics.StartSweep("wd-test", tasks)
}

// TestWatchdogSlowTask drives the slow-task detector: a task running far
// past the median of completed tasks is reported exactly once, with the
// incident attached to the sweep snapshot.
func TestWatchdogSlowTask(t *testing.T) {
	p := sweepWith(t, 4)
	clock := newFakeNow()
	w := NewWatchdog(p, "wd-test", WatchdogConfig{SlowFactor: 8, MinDone: 3, Wedge: 240 * time.Hour}, clock.now)

	// Three tasks complete in a millisecond each (a small but nonzero
	// median); the fourth keeps running.
	for i := 0; i < 3; i++ {
		p.TaskRunning(i, i)
		p.TaskDone(i, "miss", time.Millisecond, nil)
	}
	p.TaskRunning(3, 0)

	// First look: watchdog observes task 3 start; nothing is slow yet.
	if inc := w.Check(); len(inc) != 0 {
		t.Fatalf("incidents on first check: %+v", inc)
	}
	// Ten minutes later the task is thousands of medians over the limit.
	clock.advance(10 * time.Minute)
	inc := w.Check()
	if len(inc) != 1 {
		t.Fatalf("got %d incidents, want 1: %+v", len(inc), inc)
	}
	got := inc[0]
	if got.Kind != IncidentSlowTask || got.Workload != "wl" || got.Series != "series" {
		t.Errorf("incident identity wrong: %+v", got)
	}
	if got.ElapsedMS < float64(9*time.Minute/time.Millisecond) {
		t.Errorf("elapsed %v ms, want ~10 minutes", got.ElapsedMS)
	}
	if got.MedianMS <= 0 {
		t.Errorf("median not measured: %v", got.MedianMS)
	}
	if !strings.Contains(got.Detail, "over the sweep median") ||
		!strings.Contains(got.Detail, "flight recorder") {
		t.Errorf("detail missing context: %q", got.Detail)
	}
	if !strings.Contains(got.Stacks, "goroutine") {
		t.Errorf("no goroutine dump captured: %q", got.Stacks)
	}
	if got.Time == "" {
		t.Error("incident not timestamped")
	}

	// Reported once: later checks stay quiet for the same task.
	clock.advance(10 * time.Minute)
	if inc := w.Check(); len(inc) != 0 {
		t.Errorf("slow task re-reported: %+v", inc)
	}
	if snap := p.Snapshot(); len(snap.Incidents) != 1 {
		t.Errorf("snapshot carries %d incidents, want 1", len(snap.Incidents))
	}
}

// TestWatchdogMinDone checks no slow-task incident fires before enough
// tasks completed to trust the median.
func TestWatchdogMinDone(t *testing.T) {
	p := sweepWith(t, 3)
	clock := newFakeNow()
	w := NewWatchdog(p, "wd-test", WatchdogConfig{MinDone: 3, Wedge: 240 * time.Hour}, clock.now)

	p.TaskRunning(0, 0)
	p.TaskDone(0, "miss", time.Millisecond, nil)
	p.TaskRunning(1, 0)
	p.TaskDone(1, "miss", time.Millisecond, nil)
	p.TaskRunning(2, 0) // only 2 of the required 3 done

	w.Check()
	clock.advance(time.Hour)
	if inc := w.Check(); len(inc) != 0 {
		t.Errorf("slow-task fired below MinDone: %+v", inc)
	}
}

// TestWatchdogWedge drives the wedge detector: a sweep with work left and
// no completions for the wedge window fires once, then re-arms after
// progress resumes.
func TestWatchdogWedge(t *testing.T) {
	p := sweepWith(t, 2)
	clock := newFakeNow()
	w := NewWatchdog(p, "wd-test", WatchdogConfig{Wedge: 2 * time.Minute}, clock.now)

	p.TaskRunning(0, 0)
	w.Check() // baseline: lastProgress = now

	clock.advance(90 * time.Second)
	if inc := w.Check(); len(inc) != 0 {
		t.Fatalf("wedge before the window: %+v", inc)
	}
	clock.advance(time.Minute) // 2m30s of no progress
	inc := w.Check()
	if len(inc) != 1 || inc[0].Kind != IncidentWedge {
		t.Fatalf("got %+v, want one wedge incident", inc)
	}
	if !strings.Contains(inc[0].Detail, "no task completed") {
		t.Errorf("wedge detail: %q", inc[0].Detail)
	}
	// Still wedged: the episode is reported once.
	clock.advance(time.Hour)
	if inc := w.Check(); len(inc) != 0 {
		t.Errorf("wedge re-reported within one episode: %+v", inc)
	}

	// Progress resumes, then stalls again: a fresh episode fires.
	p.TaskDone(0, "miss", time.Millisecond, nil)
	p.TaskRunning(1, 0)
	if inc := w.Check(); len(inc) != 0 {
		t.Fatalf("incident right after progress: %+v", inc)
	}
	clock.advance(3 * time.Minute)
	inc = w.Check()
	if len(inc) != 1 || inc[0].Kind != IncidentWedge {
		t.Errorf("second wedge episode not reported: %+v", inc)
	}

	// Finished sweep: never a wedge, no matter how long ago it ended.
	p.TaskDone(1, "miss", time.Millisecond, nil)
	p.Finish()
	w.Check()
	clock.advance(time.Hour)
	if inc := w.Check(); len(inc) != 0 {
		t.Errorf("wedge on a finished sweep: %+v", inc)
	}
}

// TestWatchdogLoop smoke-tests the real StartWatchdog/Stop lifecycle on a
// fast cadence (race coverage of the loop against live task updates).
func TestWatchdogLoop(t *testing.T) {
	p := sweepWith(t, 2)
	w := StartWatchdog(p, "wd-loop", WatchdogConfig{Every: time.Millisecond})
	p.TaskRunning(0, 0)
	p.TaskDone(0, "miss", time.Millisecond, nil)
	time.Sleep(5 * time.Millisecond)
	w.Stop()
	w.Stop()                // second Stop must not panic
	(*Watchdog)(nil).Stop() // nil-safe
}
