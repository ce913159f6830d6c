package pipeline

import (
	"testing"

	"repro/internal/simcache"
)

// TestConfigByName pins every machine name a CLI accepts — mgsim's width
// aliases, mgtrace's and mgreport -attribcfg's short and full names, and
// mgselect's baseline/reduced — to the machine it selects, compared by
// fingerprint over the whole Config.
func TestConfigByName(t *testing.T) {
	for _, c := range []struct {
		names []string
		want  Config
	}{
		{[]string{"baseline", "baseline-4way", "full", "4way"}, Baseline()},
		{[]string{"reduced", "reduced-3way", "3way"}, Reduced()},
		{[]string{"width2", "cross-2way", "2way"}, Width2()},
		{[]string{"width8", "cross-8way", "8way"}, Width8()},
		{[]string{"dmem4", "cross-dmem4"}, SmallDMem()},
	} {
		for _, name := range c.names {
			cfg, err := ConfigByName(name)
			if err != nil {
				t.Errorf("ConfigByName(%q): %v", name, err)
				continue
			}
			if simcache.Fingerprint(cfg) != simcache.Fingerprint(c.want) {
				t.Errorf("ConfigByName(%q) = %s, want %s", name, cfg.Name, c.want.Name)
			}
			if cfg.FetchWidth <= 0 || cfg.FetchToRename <= 0 {
				t.Errorf("ConfigByName(%q): degenerate config %+v", name, cfg)
			}
		}
	}
	for _, name := range []string{"nope", "", "Baseline", "1way"} {
		if _, err := ConfigByName(name); err == nil {
			t.Errorf("ConfigByName(%q) accepted an unknown configuration", name)
		}
	}
}
