package obs

import "repro/internal/metrics"

// Scrape-time observability metrics for the trace layer itself: how busy
// the flight recorder is. The totals are read lazily at scrape time,
// matching the repo rule that /metrics never adds work to the cycle loop.

// InstallMetrics registers the obs package's metrics on reg.
func InstallMetrics(reg *metrics.Registry) {
	reg.CounterFunc("mg_flight_records_total",
		"Uop records captured by the flight recorder (0 when disabled).",
		func() float64 {
			if f := Flight(); f != nil {
				total, _ := f.Totals()
				return float64(total)
			}
			return 0
		})
	reg.CounterFunc("mg_flight_dropped_total",
		"Flight-recorder records overwritten by ring wrap.",
		func() float64 {
			if f := Flight(); f != nil {
				_, dropped := f.Totals()
				return float64(dropped)
			}
			return 0
		})
}
