package main

import (
	"slices"
	"testing"

	"mira/internal/experiments"
)

// TestSelectSuites pins the -suite/-all mapping: unknown names fail
// before any suite runs, -all is the paper's presentation order, and a
// -suite list comes back in that order too, whatever order it was given.
func TestSelectSuites(t *testing.T) {
	cfg := experiments.ScaledConfig()
	order := experiments.SuiteNames(cfg)

	if _, err := selectSuites(cfg, "table_ii,table_vi", false); err == nil {
		t.Error("unknown suite table_vi: no error")
	}
	if _, err := selectSuites(cfg, "nosuch", true); err == nil {
		t.Error("unknown suite with -all: no error")
	}

	got, err := selectSuites(cfg, "", true)
	if err != nil || !slices.Equal(got, order) {
		t.Errorf("-all = %v, %v; want %v", got, err, order)
	}
	got, err = selectSuites(cfg, " ablation, table_i ,table_ii,table_i", false)
	if err != nil || !slices.Equal(got, []string{"table_i", "table_ii", "ablation"}) {
		t.Errorf("-suite list = %v, %v; want [table_i table_ii ablation]", got, err)
	}
	for _, list := range []string{"", " , "} {
		if got, err := selectSuites(cfg, list, false); err != nil || len(got) != 0 {
			t.Errorf("empty selection %q = %v, %v; want none", list, got, err)
		}
	}
}
