package obs

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	// Register /debug/vars and /debug/pprof on the default mux; the debug
	// server exists to watch counters and grab profiles during long sweeps.
	_ "expvar"
	_ "net/http/pprof"

	"repro/internal/metrics"
)

// registerOnce guards the /metrics, /debug/sweep and /debug/dash
// registrations on the default mux (http.Handle panics on duplicates).
var registerOnce sync.Once

// dashHandler holds the /debug/dash page handler. The run-ledger layer
// installs it (via core.SetLedger) so obs need not depend on the ledger
// package; until something is installed the route answers 503 with a
// hint instead of 404ing.
var dashHandler atomic.Value // http.Handler

// SetDashHandler installs the handler served at /debug/dash.
func SetDashHandler(h http.Handler) { dashHandler.Store(h) }

func serveDash(w http.ResponseWriter, r *http.Request) {
	if h, ok := dashHandler.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "run ledger off: start the process with -ledger DIR to record sweep history and serve this dashboard",
		http.StatusServiceUnavailable)
}

// ServeDebug starts an HTTP server on addr exposing expvar counters
// (/debug/vars), pprof endpoints (/debug/pprof/), the metrics registry in
// Prometheus text format (/metrics), live sweep progress (/debug/sweep)
// and the run-history dashboard (/debug/dash, live once a run ledger is
// installed). No route adds work to the simulator's cycle loop, so the
// server leaves a run's speed unchanged. It listens synchronously — so
// address errors surface immediately — and serves in the background for
// the life of the process. Returns the bound address (useful with ":0").
func ServeDebug(addr string) (string, error) {
	registerOnce.Do(func() {
		http.Handle("/metrics", metrics.Handler())
		http.Handle("/debug/sweep", metrics.SweepHandler())
		http.Handle("/debug/dash", http.HandlerFunc(serveDash))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) //nolint:errcheck — background best-effort server
	return ln.Addr().String(), nil
}
