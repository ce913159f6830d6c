package metrics

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSweepProgress walks a 2-task sweep through its states and checks
// the snapshot counts, per-task fields and the rate-based ETA.
func TestSweepProgress(t *testing.T) {
	ResetProgress()
	defer ResetProgress()

	p := StartSweep("fig1", [][2]string{{"wl.a", "s0"}, {"wl.a", "s1"}})
	s := p.Snapshot()
	if s.Title != "fig1" || !s.Active || s.Total != 2 || s.Queued != 2 || s.Done != 0 {
		t.Errorf("fresh sweep snapshot wrong: %+v", s)
	}
	if s.ETAMS != 0 {
		t.Errorf("ETA with zero tasks done: %v", s.ETAMS)
	}

	p.TaskRunning(0, 3)
	s = p.Snapshot()
	if s.Running != 1 || s.Queued != 1 || s.Tasks[0].State != TaskRunning || s.Tasks[0].Worker != 3 {
		t.Errorf("running snapshot wrong: %+v", s)
	}

	time.Sleep(2 * time.Millisecond) // make elapsed measurable so the ETA is nonzero
	p.TaskDone(0, "hit", time.Millisecond, nil)
	s = p.Snapshot()
	if s.Done != 1 || s.Failed != 0 || s.Tasks[0].State != TaskDone || s.Tasks[0].Cache != "hit" {
		t.Errorf("done snapshot wrong: %+v", s)
	}
	if s.ETAMS <= 0 {
		t.Errorf("ETA missing mid-sweep: %+v", s)
	}
	wantETA := s.ElapsedMS / float64(s.Done) * float64(s.Total-s.Done)
	if s.ETAMS > 2*wantETA {
		t.Errorf("ETA %v far from rate extrapolation %v", s.ETAMS, wantETA)
	}

	p.TaskRunning(1, 0)
	p.TaskDone(1, "miss", time.Millisecond, errors.New("boom"))
	p.Finish()
	s = p.Snapshot()
	if s.Active || s.Done != 2 || s.Failed != 1 || s.Tasks[1].State != TaskError || s.Tasks[1].Error != "boom" {
		t.Errorf("finished snapshot wrong: %+v", s)
	}
	if s.ETAMS != 0 {
		t.Errorf("finished sweep still has an ETA: %v", s.ETAMS)
	}
}

// TestSweepHandler checks /debug/sweep serves the registered sweeps as JSON.
func TestSweepHandler(t *testing.T) {
	ResetProgress()
	defer ResetProgress()

	p := StartSweep("fig6", [][2]string{{"wl.b", "base"}})
	p.TaskRunning(0, 1)
	p.TaskDone(0, "miss", time.Millisecond, nil)
	p.Finish()

	rec := httptest.NewRecorder()
	SweepHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sweep", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var body struct {
		Sweeps []SweepSnapshot `json:"sweeps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON from /debug/sweep: %v\n%s", err, rec.Body.String())
	}
	if len(body.Sweeps) != 1 {
		t.Fatalf("got %d sweeps, want 1", len(body.Sweeps))
	}
	sw := body.Sweeps[0]
	if sw.Title != "fig6" || sw.Active || sw.Done != 1 || len(sw.Tasks) != 1 {
		t.Errorf("sweep JSON wrong: %+v", sw)
	}
	if sw.Tasks[0].Workload != "wl.b" || sw.Tasks[0].Cache != "miss" {
		t.Errorf("task JSON wrong: %+v", sw.Tasks[0])
	}
}

// TestMetricsHandler checks /metrics serves the installed registry with the
// Prometheus content type, and a valid empty exposition with none installed.
func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("mg_handler_test_total", "test").Add(4)
	Install(r)
	defer Install(nil)

	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	samples, err := ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Name != "mg_handler_test_total" || samples[0].Value != 4 {
		t.Errorf("scrape wrong: %+v", samples)
	}

	Install(nil)
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err = ParseText(rec.Body)
	if err != nil {
		t.Fatalf("no-registry exposition not parseable: %v", err)
	}
	if len(samples) != 0 {
		t.Errorf("no-registry exposition has samples: %+v", samples)
	}
}
