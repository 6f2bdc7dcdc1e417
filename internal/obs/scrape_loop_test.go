package obs_test

import (
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/telemetry"
)

// TestScraperStartStop drives a Scraper through the one loop that runs it,
// telemetry.Pipeline: Start makes it scrape, Stop halts it and leaves it
// usable, so a caller can still take a final ScrapeOnce after the loop
// has gone.
func TestScraperStartStop(t *testing.T) {
	r := obs.NewRegistry()
	r.SetEnabled(true)
	r.Counter("ticks_total").Inc()
	p := telemetry.NewPipeline(telemetry.PipelineConfig{Registry: r, Interval: time.Millisecond})
	sc := p.Scraper
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for sc.Stats().Scrapes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scraper never ran")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	after := sc.Stats()
	if after.Errors != 0 {
		t.Fatalf("scrape errors = %d, want 0", after.Errors)
	}
	if after.Last.IsZero() {
		t.Fatal("Stats.Last unset after scrapes")
	}
	if err := sc.ScrapeOnce(); err != nil {
		t.Fatalf("ScrapeOnce after Stop: %v", err)
	}
	if got := sc.Stats().Scrapes; got != after.Scrapes+1 {
		t.Fatalf("scrapes after Stop + ScrapeOnce = %d, want %d", got, after.Scrapes+1)
	}
}
