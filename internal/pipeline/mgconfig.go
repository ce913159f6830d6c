package pipeline

import (
	"repro/internal/minigraph"
	"repro/internal/obs"
)

// MGConfig configures mini-graph processing for a run. The zero value
// disables mini-graphs entirely (pure singleton execution).
type MGConfig struct {
	// Selection is the set of mini-graphs to execute; nil disables
	// mini-graph processing.
	Selection *minigraph.Selection

	// Dynamic enables the Slack-Dynamic run-time monitor, which disables
	// templates whose instances show harmful serialization.
	Dynamic bool
	// DynamicDelayOnly makes the monitor consider serialization delay alone
	// (rule-#4-less ablation: Ideal-Slack-Dynamic-Delay and kin).
	DynamicDelayOnly bool
	// DynamicSIAL makes the monitor use the macro-op-scheduling heuristic:
	// flag an instance whenever its last-arriving operand is a serializing
	// operand, ignoring whether the mini-graph actually issued data-bound.
	DynamicSIAL bool
	// IdealOutlining removes the outlining penalty: a disabled mini-graph
	// executes as inline singletons with no extra jumps (the paper's
	// Ideal-Slack-Dynamic model).
	IdealOutlining bool
	// DisableAll starts every template disabled, so the whole program runs
	// in outlined form: the worst-case encoding penalty (and a test hook).
	DisableAll bool

	// DisableThreshold is the saturating-counter value at which a template
	// is disabled (0 means DefaultDisableThreshold).
	DisableThreshold int
	// DecayInterval is the cycle period of counter decay, which implements
	// hysteresis and resurrection (0 means DefaultDecayInterval).
	DecayInterval int64
}

// Default Slack-Dynamic hysteresis parameters.
const (
	DefaultDisableThreshold = 3
	DefaultDecayInterval    = 20_000
	counterMax              = 7
)

// Enabled reports whether mini-graph processing is active.
func (m *MGConfig) Enabled() bool { return m.Selection != nil }

// mgMonitor is the Slack-Dynamic hardware state: one saturating counter per
// MGT template plus the disabled bitmap.
type mgMonitor struct {
	cfg       *MGConfig
	counters  []uint8
	disabled  []bool
	threshold int
	decayAt   int64
	interval  int64

	stats *Stats
	trace *obs.Pipetrace // nil unless a pipetrace is attached
}

func newMGMonitor(cfg *MGConfig, numTemplates int, stats *Stats) *mgMonitor {
	th := cfg.DisableThreshold
	if th <= 0 {
		th = DefaultDisableThreshold
	}
	iv := cfg.DecayInterval
	if iv <= 0 {
		iv = DefaultDecayInterval
	}
	m := &mgMonitor{
		cfg:       cfg,
		counters:  make([]uint8, numTemplates),
		disabled:  make([]bool, numTemplates),
		threshold: th,
		decayAt:   iv,
		interval:  iv,
		stats:     stats,
	}
	if cfg.DisableAll {
		for i := range m.disabled {
			m.disabled[i] = true
			m.counters[i] = counterMax
		}
	}
	return m
}

// isDisabled reports whether a template is currently disabled.
func (m *mgMonitor) isDisabled(template int) bool { return m.disabled[template] }

// harmful records a harmful-serialization event for a template at the
// given cycle (the cycle feeds only the pipetrace).
func (m *mgMonitor) harmful(cycle int64, template int) {
	m.stats.MGHarmfulEvents++
	if m.counters[template] < counterMax {
		m.counters[template]++
	}
	if !m.disabled[template] && int(m.counters[template]) >= m.threshold {
		m.disabled[template] = true
		m.stats.MGDisables++
		if m.trace != nil {
			m.trace.Event(cycle, obs.EvDisable, template, -1)
		}
	}
}

// clean records a non-serialized instance, decaying the counter.
func (m *mgMonitor) clean(template int) {
	if m.counters[template] > 0 {
		m.counters[template]--
	}
}

// tick performs periodic decay, re-enabling templates whose counters have
// fallen below the threshold (mini-graph "resurrection").
func (m *mgMonitor) tick(cycle int64) {
	if cycle < m.decayAt {
		return
	}
	m.decayAt = cycle + m.interval
	for t := range m.counters {
		if m.counters[t] > 0 {
			m.counters[t]--
		}
		if m.disabled[t] && int(m.counters[t]) < m.threshold {
			m.disabled[t] = false
			m.stats.MGReenables++
			if m.trace != nil {
				m.trace.Event(cycle, obs.EvReenable, t, -1)
			}
		}
	}
}

// disabledCount returns how many templates are currently disabled.
func (m *mgMonitor) disabledCount() int {
	n := 0
	for _, d := range m.disabled {
		if d {
			n++
		}
	}
	return n
}
