package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/config"
)

// TestReplayObservePrintsResources: -replay -observe prints the FTL's
// telemetry, so the per-chip and per-channel resource families the live
// endpoint shows come out of a replay too, and -chrome gets the retained
// events.
func TestReplayObservePrintsResources(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "tr.bin")
	if err := generate(config.Paper(), "seqwrite", 300, tr); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := doReplay(&out, config.Paper(), tr, "conzone", true, filepath.Join(dir, "tr.json")); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, family := range []string{"conzone_resource_busy_seconds_total", "conzone_resource_ops_total", "conzone_resource_utilization"} {
		if !strings.Contains(got, "\n"+family+`{resource="chip0"} `) {
			t.Errorf("replay output has no %s{resource=\"chip0\"} sample:\n%s", family, got)
		}
	}
	if m := regexp.MustCompile(`wrote Chrome trace \((\d+) events\)`).FindStringSubmatch(got); m == nil || m[1] == "0" {
		t.Errorf("Chrome trace written without the retained events:\n%s", got)
	}
}
