package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAliasReport(t *testing.T) {
	for _, spec := range []string{"gshare:1KB", "bimodal:64B", "tage:1KB"} {
		if err := run(context.Background(), "compress", "test", spec, 3, ""); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	if err := run(context.Background(), "gcc", "test", "gshare:1KB", 5, ""); err != nil {
		t.Fatal(err)
	}
}

func TestAliasHeatmap(t *testing.T) {
	out := filepath.Join(t.TempDir(), "alias.svg")
	if err := run(context.Background(), "compress", "test", "gshare:64B", 4, out); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "Aliasing conflicts", "aggressor", "victim"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("heatmap svg missing %q", want)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	for _, tc := range []struct{ wl, spec, what string }{
		{"gcc", "neural-net:1KB", "unknown scheme"},
		{"gcc", "gshare:1QB", "bad size"},
		{"gcc", "bimodal:1KB:h=4", "option the scheme does not take"},
		{"nosuch", "gshare:1KB", "unknown workload"},
	} {
		if err := run(context.Background(), tc.wl, "test", tc.spec, 5, ""); err == nil {
			t.Errorf("%s accepted (%s on %s)", tc.what, tc.spec, tc.wl)
		}
	}
}
