package core

import (
	"strings"
	"testing"

	"mrlegal/internal/dtest"
)

// TestConfigValidate breaks one field of DefaultConfig per row: Validate
// must name that field, and NewLegalizer must refuse the config.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	cases := []struct {
		field string
		mut   func(*Config)
	}{
		{"Rx", func(c *Config) { c.Rx = -5 }},
		{"Rx", func(c *Config) { c.Rx = 0 }},
		{"Rx", func(c *Config) { c.Rx = 100_001 }},
		{"Ry", func(c *Config) { c.Ry = -1 }},
		{"Ry", func(c *Config) { c.Ry = 0 }},
		{"Ry", func(c *Config) { c.Ry = 10_001 }},
		{"MaxRounds", func(c *Config) { c.MaxRounds = 0 }},
		{"MaxRounds", func(c *Config) { c.MaxRounds = -3 }},
		{"MaxRounds", func(c *Config) { c.MaxRounds = 100_001 }},
		{"Workers", func(c *Config) { c.Workers = -2 }},
		{"AuditEvery", func(c *Config) { c.AuditEvery = -1 }},
		{"AuditEvery", func(c *Config) { c.AuditEvery = 1_000_001 }},
		{"Constraints", func(c *Config) {
			c.Solver = refusingSolver{}
			c.Constraints = coverSet(t, coverSpacing(t, 1, 1))
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming Config.%s", tc.field, err, tc.field)
			continue
		}
		if _, nerr := NewLegalizer(dtest.Flat(2, 20), cfg); nerr == nil || nerr.Error() != err.Error() {
			t.Errorf("%s: NewLegalizer error %v, want %v", tc.field, nerr, err)
		}
	}
}

// TestConfigValidateAcceptsEdges pins both edges of each bounded field,
// so Validate rejects only what no run can use. The ranges are the ones
// the job server has always admitted.
func TestConfigValidateAcceptsEdges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rx, cfg.Ry = 1, 1
	cfg.MaxRounds = 1
	cfg.Workers, cfg.AuditEvery = 0, 0
	cfg.Solver = refusingSolver{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("lower edges rejected: %v", err)
	}
	cfg.Rx, cfg.Ry = 100_000, 10_000
	cfg.MaxRounds, cfg.AuditEvery = 100_000, 1_000_000
	if err := cfg.Validate(); err != nil {
		t.Fatalf("upper edges rejected: %v", err)
	}
}
