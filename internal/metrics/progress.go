package metrics

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// This file is the live-progress layer behind /debug/sweep: every RunSweep
// registers its task list here and updates task states as the worker pool
// drains them, so a long `mgreport -exp all` can be watched from a browser
// or curl while it runs. Tracking is always on (a handful of mutexed
// updates per task, invisible next to the simulations they describe);
// the endpoint is only reachable when a debug server is started.

// Task states reported by /debug/sweep.
const (
	TaskQueued  = "queued"
	TaskRunning = "running"
	TaskDone    = "done"
	TaskError   = "error"
)

// TaskSnapshot is one (workload, series) task's live state.
type TaskSnapshot struct {
	Workload  string  `json:"workload"`
	Series    string  `json:"series"`
	State     string  `json:"state"`
	Worker    int     `json:"worker,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Cache     string  `json:"cache,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// SweepSnapshot is one sweep's live state: counts, rate-based ETA, and the
// full task list.
type SweepSnapshot struct {
	Title     string         `json:"title"`
	Active    bool           `json:"active"`
	Total     int            `json:"total"`
	Queued    int            `json:"queued"`
	Running   int            `json:"running"`
	Done      int            `json:"done"`
	Failed    int            `json:"failed"`
	ElapsedMS float64        `json:"elapsed_ms"`
	ETAMS     float64        `json:"eta_ms,omitempty"`
	Tasks     []TaskSnapshot `json:"tasks"`
}

// SweepProgress tracks one sweep's tasks. Created by StartSweep; the
// owning sweep marks tasks running/done and calls Finish.
type SweepProgress struct {
	mu      sync.Mutex
	title   string
	started time.Time
	active  bool
	tasks   []taskProgress
}

type taskProgress struct {
	workload, series string
	state            string
	worker           int
	started          time.Time
	wallMS           float64
	cache            string
	err              string
}

// progressMu guards the process-wide sweep list. Finished sweeps are kept
// (bounded by the experiment count of a run) so /debug/sweep shows a full
// run history.
var (
	progressMu sync.Mutex
	sweeps     []*SweepProgress
)

// StartSweep registers a sweep with its (workload, series) task list, all
// initially queued. The returned tracker is never nil.
func StartSweep(title string, tasks [][2]string) *SweepProgress {
	p := &SweepProgress{title: title, started: time.Now(), active: true}
	p.tasks = make([]taskProgress, len(tasks))
	for i, t := range tasks {
		p.tasks[i] = taskProgress{workload: t[0], series: t[1], state: TaskQueued}
	}
	progressMu.Lock()
	sweeps = append(sweeps, p)
	progressMu.Unlock()
	return p
}

// ResetProgress drops all registered sweeps (tests).
func ResetProgress() {
	progressMu.Lock()
	sweeps = nil
	progressMu.Unlock()
}

// TaskRunning marks task i as picked up by worker w.
func (p *SweepProgress) TaskRunning(i, worker int) {
	p.mu.Lock()
	p.tasks[i].state = TaskRunning
	p.tasks[i].worker = worker
	p.tasks[i].started = time.Now()
	p.mu.Unlock()
}

// TaskDone marks task i finished after wall, as its worker measured it,
// with the given cache outcome; a non-nil err marks it failed.
func (p *SweepProgress) TaskDone(i int, cache string, wall time.Duration, err error) {
	p.mu.Lock()
	t := &p.tasks[i]
	t.state = TaskDone
	if err != nil {
		t.state = TaskError
		t.err = err.Error()
	}
	t.cache = cache
	t.wallMS = float64(wall) / float64(time.Millisecond)
	p.mu.Unlock()
}

// Finish marks the sweep inactive.
func (p *SweepProgress) Finish() {
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

// Snapshot returns the sweep's current state. The ETA extrapolates from
// the completed-task rate: remaining * (elapsed / done).
func (p *SweepProgress) Snapshot() SweepSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := SweepSnapshot{
		Title:     p.title,
		Active:    p.active,
		Total:     len(p.tasks),
		ElapsedMS: float64(time.Since(p.started)) / float64(time.Millisecond),
		Tasks:     make([]TaskSnapshot, len(p.tasks)),
	}
	for i := range p.tasks {
		t := &p.tasks[i]
		ts := TaskSnapshot{Workload: t.workload, Series: t.series, State: t.state,
			Cache: t.cache, Error: t.err}
		switch t.state {
		case TaskQueued:
			s.Queued++
		case TaskRunning:
			s.Running++
			ts.Worker = t.worker
			ts.ElapsedMS = float64(time.Since(t.started)) / float64(time.Millisecond)
		case TaskDone, TaskError:
			s.Done++
			if t.state == TaskError {
				s.Failed++
			}
			ts.Worker = t.worker
			ts.ElapsedMS = t.wallMS
		}
		s.Tasks[i] = ts
	}
	if p.active && s.Done > 0 && s.Done < s.Total {
		s.ETAMS = s.ElapsedMS / float64(s.Done) * float64(s.Total-s.Done)
	}
	return s
}

// SnapshotSweeps returns the state of every registered sweep, in
// registration order.
func SnapshotSweeps() []SweepSnapshot {
	progressMu.Lock()
	list := append([]*SweepProgress(nil), sweeps...)
	progressMu.Unlock()
	out := make([]SweepSnapshot, len(list))
	for i, p := range list {
		out[i] = p.Snapshot()
	}
	return out
}

// SweepHandler serves the live sweep-progress JSON at /debug/sweep:
// {"sweeps": [...]}, newest-registered last.
func SweepHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck — best-effort debug endpoint
			Sweeps []SweepSnapshot `json:"sweeps"`
		}{SnapshotSweeps()})
	})
}

// Handler serves the installed registry in Prometheus text exposition
// format at /metrics. With no registry installed it serves an explanatory
// comment (still a valid, empty exposition).
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default().WritePrometheus(w) //nolint:errcheck — best-effort debug endpoint
	})
}
