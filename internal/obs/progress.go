package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// StartProgress launches a goroutine that prints a one-line pipeline status
// to w every interval — arms done/failed/in-flight, simulation throughput
// over the last interval, replay and checkpoint cache efficiency, replay
// memory occupancy — until the returned stop function is called. stop
// prints one final line so short runs still report. A nil observer returns
// a no-op stop. The status goes to w only: the live bus's ProgressRecords
// come from Serve's pulse alone, so a served dashboard sees one rate
// series, not two over different windows.
func (o *Observer) StartProgress(w io.Writer, interval time.Duration) (stop func()) {
	if o == nil || w == nil {
		return noop
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	var lastEvents uint64
	var lastT = time.Now()
	emit := func(final bool) {
		now := time.Now()
		events := o.Counter(MSimEvents).Value()
		dt := now.Sub(lastT).Seconds()
		var rate float64
		if dt > 0 {
			rate = float64(events-lastEvents) / dt
		}
		lastEvents, lastT = events, now
		tag := "progress"
		if final {
			tag = "done    "
		}
		fmt.Fprintf(w, "%s %8s | arms %d done, %d failed, %d running | %s events/s | replay %d capture / %d replay | checkpoint hits %d | singleflight hits %d | replay mem %s\n",
			tag,
			o.Uptime().Round(time.Second),
			o.Counter(MArmsDone).Value(),
			o.Counter(MArmsFailed).Value(),
			o.Gauge(MArmsRunning).Value(),
			siCount(rate),
			o.Counter(MReplayCaptures).Value(),
			o.Counter(MReplayReplays).Value(),
			o.Counter(MCheckpointHits).Value(),
			o.Counter(MSingleflightHits).Value(),
			siBytes(o.Gauge(MReplayMemBytes).Value()),
		)
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				emit(false)
			case <-done:
				return
			}
		}
	}()
	stop = func() {
		once.Do(func() {
			close(done)
			emit(true)
		})
	}
	// Registered so Observer.Close / StopProgress can terminate the reporter
	// even when the caller drops the stop handle.
	o.registerStop(stop)
	return stop
}

// progressRecord snapshots the registry into a live ProgressRecord. rate is
// the caller's events/sec estimate over its own measurement window.
func (o *Observer) progressRecord(rate float64) *ProgressRecord {
	return &ProgressRecord{
		UptimeNanos:      int64(o.Uptime()),
		ArmsDone:         uint64(o.Counter(MArmsDone).Value()),
		ArmsFailed:       uint64(o.Counter(MArmsFailed).Value()),
		ArmsRunning:      o.Gauge(MArmsRunning).Value(),
		Events:           uint64(o.Counter(MSimEvents).Value()),
		EventsPerSec:     rate,
		ReplayCaptures:   uint64(o.Counter(MReplayCaptures).Value()),
		ReplayReplays:    uint64(o.Counter(MReplayReplays).Value()),
		CheckpointHits:   uint64(o.Counter(MCheckpointHits).Value()),
		SingleflightHits: uint64(o.Counter(MSingleflightHits).Value()),
	}
}

// siCount renders a rate with an SI suffix: "182.4M", "3.1k", "87".
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// siBytes renders a byte count: "512MiB", "3.2KiB".
func siBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}
