package ledger

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestDashHandler renders the dashboard over a real recorded history and
// checks the load-bearing pieces: series rows with sparklines, the
// latest-vs-previous delta, per-run cache hit rates, and live sweeps.
func TestDashHandler(t *testing.T) {
	metrics.ResetProgress()
	defer metrics.ResetProgress()
	dir := t.TempDir()
	l := mustOpen(t, dir, "r1")
	for i, ipc := range []float64{1.40, 1.45, 1.10} {
		r := rec("comm.crc32", ipc)
		r.Series = "Slack-Profile"
		r.Sweep = "Figure 1"
		if i > 0 {
			r.Cache = "hit"
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	p := metrics.StartSweep("dash-test", [][2]string{{"comm.crc32", "Slack-Profile"}})
	p.TaskDone(0, "hit", time.Millisecond, nil)
	p.Finish()

	srv := httptest.NewServer(DashHandler(func() *Ledger { return l }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"comm.crc32",      // series row
		"Slack-Profile",   // series label
		"<svg",            // sparkline rendered
		"-24.1%",          // 1.45 -> 1.10 latest-vs-previous delta
		"delta-down",      // regression styled (sign also in text)
		"dash-test",       // live sweep section
		"cache hit %",     // runs table
		"66.7",            // 2 hits / 3 lookups
		l.Host().Hostname, // host fingerprint shown
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	// Ledger off: 503 with a hint, not a broken page.
	off := httptest.NewServer(DashHandler(func() *Ledger { return nil }))
	defer off.Close()
	resp2, err := off.Client().Get(off.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 503 {
		t.Fatalf("ledger-off status %d, want 503", resp2.StatusCode)
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil); s != "" {
		t.Errorf("empty sparkline: %q", s)
	}
	one := string(sparkline([]float64{1.5}))
	if !strings.Contains(one, "<circle") || strings.Contains(one, "<polyline") {
		t.Errorf("single-point sparkline should be a dot: %q", one)
	}
	many := string(sparkline([]float64{1, 2, 3, 2, 1}))
	if !strings.Contains(many, "<polyline") || !strings.Contains(many, "<title>") {
		t.Errorf("sparkline missing polyline/title: %q", many)
	}
	// A long history must clip to the cap, not grow without bound.
	long := make([]float64, 500)
	for i := range long {
		long[i] = float64(i)
	}
	clipped := string(sparkline(long))
	if n := strings.Count(clipped, ","); n > sparkPoints+2 {
		t.Errorf("sparkline not clipped: %d points", n)
	}
}

// dashPage renders the dashboard for the given ledger and returns the
// HTML, failing the test on any non-200.
func dashPage(t *testing.T, l *Ledger) string {
	t.Helper()
	srv := httptest.NewServer(DashHandler(func() *Ledger { return l }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestDashEmptyLedger renders the dashboard over a ledger with no records
// at all: a valid page, not a panic or a broken template.
func TestDashEmptyLedger(t *testing.T) {
	metrics.ResetProgress()
	defer metrics.ResetProgress()
	l := mustOpen(t, t.TempDir(), "r1")
	page := dashPage(t, l)
	for _, want := range []string{"Series history", "no timing records yet", l.Host().Hostname} {
		if !strings.Contains(page, want) {
			t.Errorf("empty-ledger dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "<polyline") {
		t.Errorf("empty-ledger dashboard drew a sparkline from nothing")
	}
}

// TestDashSingleRecord covers the one-point history: a dot sparkline and
// no latest-vs-previous delta to compute.
func TestDashSingleRecord(t *testing.T) {
	metrics.ResetProgress()
	defer metrics.ResetProgress()
	l := mustOpen(t, t.TempDir(), "r1")
	if err := l.Append(rec("comm.crc32", 1.40)); err != nil {
		t.Fatal(err)
	}
	page := dashPage(t, l)
	if !strings.Contains(page, "comm.crc32") {
		t.Errorf("single-record dashboard missing the series row")
	}
	// One point has no previous to diff against: the delta cell is a dash,
	// never a styled regression.
	if strings.Contains(page, `class="num delta-down"`) {
		t.Errorf("regression styling rendered with only one point")
	}
	if !strings.Contains(page, "–") {
		t.Errorf("delta placeholder missing with only one point")
	}
}
