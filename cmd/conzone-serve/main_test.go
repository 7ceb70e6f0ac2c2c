package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
)

// serve starts the command on a free loopback port with args and returns the
// base URL and what it announced on stdout. The server stops with t: closing
// the listener returns http.Serve, and the cleanup waits for that.
func serve(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout bytes.Buffer
	ln, h, err := listen(append([]string{"-idle", "-addr", "127.0.0.1:0"}, args...), &stdout)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = http.Serve(ln, h) // returns the listener's close
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	return "http://" + ln.Addr().String(), stdout.String()
}

// get fetches url and requires a 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// TestServeIdle: a quiescent paper device answers /metrics with the
// conzone_ families and renders /zones.txt.
func TestServeIdle(t *testing.T) {
	base, banner := serve(t)
	if !strings.HasPrefix(banner, "conzone-serve: http://127.0.0.1:") || !strings.Contains(banner, "device: 96 zones x 16 MiB") {
		t.Errorf("banner %q", banner)
	}
	metrics := get(t, base+"/metrics")
	for _, family := range []string{
		"conzone_ftl_host_written_bytes_total ",
		"conzone_nand_erases_total ",
		"conzone_occupancy_free_superblocks ",
		"conzone_zone_fill_frac{",
	} {
		if !strings.Contains(metrics, "\n"+family) {
			t.Errorf("/metrics lacks %s", family)
		}
	}
	if zones := get(t, base+"/zones.txt"); !strings.Contains(zones, "zones: 96") {
		t.Errorf("/zones.txt:\n%s", zones)
	}
}

// TestServeImage: -image serves the device a saved image holds.
func TestServeImage(t *testing.T) {
	dir := t.TempDir()
	cfgPath, img := filepath.Join(dir, "small.json"), filepath.Join(dir, "dev.img")
	if err := config.Small().Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	dev, err := conzone.Open(config.Small())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(0, make([]byte, dev.ZoneBytes())); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatal(err)
	}
	if err := dev.SaveImage(img); err != nil {
		t.Fatal(err)
	}
	base, banner := serve(t, "-config", cfgPath, "-image", img)
	if !strings.Contains(banner, "device: 10 zones x 2 MiB") {
		t.Errorf("banner %q", banner)
	}
	if metrics := get(t, base+"/metrics"); !strings.Contains(metrics, "\nconzone_zone_fill_frac{zone=\"0\",state=\"FULL\"} 1\n") {
		t.Errorf("/metrics does not show zone 0 full:\n%s", metrics)
	}
}

// TestServeRefusesBadConfig: a -config that does not load is refused
// before anything listens or prints.
func TestServeRefusesBadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if ln, _, err := listen([]string{"-idle", "-addr", "127.0.0.1:0", "-config", path}, &stdout); err == nil {
		ln.Close()
		t.Fatal("a malformed -config was accepted")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q before refusing", stdout.String())
	}
}
