package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestServeDebug boots the debug server on an ephemeral port and exercises
// every endpoint over a real listener: expvar, Prometheus metrics, and the
// live sweep-progress JSON.
func TestServeDebug(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("mg_obs_test_total", "test counter").Add(9)
	metrics.Install(reg)
	defer metrics.Install(nil)
	metrics.ResetProgress()
	defer metrics.ResetProgress()
	p := metrics.StartSweep("obs-test", [][2]string{{"wl", "s"}})
	p.TaskDone(0, "hit", time.Millisecond, nil)
	p.Finish()

	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("ServeDebug returned unbound address %q", addr)
	}

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	vars, _ := get("/debug/vars")
	var varsJSON map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &varsJSON); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := varsJSON["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}

	prom, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	samples, err := metrics.ParseText(strings.NewReader(prom))
	if err != nil {
		t.Fatalf("/metrics not parseable: %v\n%s", err, prom)
	}
	found := false
	for _, s := range samples {
		if s.Name == "mg_obs_test_total" && s.Value == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("/metrics missing mg_obs_test_total: %s", prom)
	}

	sweep, ct := get("/debug/sweep")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/sweep content type %q", ct)
	}
	var body struct {
		Sweeps []metrics.SweepSnapshot `json:"sweeps"`
	}
	if err := json.Unmarshal([]byte(sweep), &body); err != nil {
		t.Fatalf("/debug/sweep not JSON: %v\n%s", err, sweep)
	}
	if len(body.Sweeps) != 1 || body.Sweeps[0].Title != "obs-test" || body.Sweeps[0].Done != 1 {
		t.Errorf("/debug/sweep wrong: %s", sweep)
	}

	// Second server on another port must not panic on duplicate mux
	// registration.
	if _, err := ServeDebug("127.0.0.1:0"); err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
}
