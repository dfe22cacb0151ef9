// Command photon-top is a live fleet dashboard: it attaches to one or more
// Photon aggregators (root and relays) as a read-only observer and renders
// per-tier round progress, the round's phase breakdown, wire throughput,
// and the member-health/straggler map, refreshing in place like top(1).
// The subscription is codec-free and never occupies a membership slot, so
// it is safe to point at a production fleet mid-run.
//
// When stdout is not a terminal (or with -plain), it degrades to one log
// line per round event, suitable for piping.
//
// Usage:
//
//	photon-top -addr localhost:9000
//	photon-top -addr localhost:9000,localhost:9001,localhost:9002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"photon/internal/fed"
	"photon/internal/link"
)

// feed is the latest state of one observed aggregator.
type feed struct {
	addr      string
	connected bool
	lastErr   string
	ev        fed.ObserveEvent
	lastAt    time.Time // arrival time of ev
	prevAt    time.Time // arrival time of the event before it
	rounds    int       // events seen on this feed
}

// board is the shared dashboard state: one feed per observed address.
type board struct {
	mu    sync.Mutex
	feeds map[string]*feed
}

func (b *board) get(addr string) *feed {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.feeds[addr]
	if !ok {
		f = &feed{addr: addr}
		b.feeds[addr] = f
	}
	return f
}

func (b *board) snapshot() []feed {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]feed, 0, len(b.feeds))
	for _, f := range b.feeds {
		out = append(out, *f)
	}
	// Root first, then relays by tier, then address for stability.
	sort.Slice(out, func(i, j int) bool {
		if out[i].ev.Record.Tier != out[j].ev.Record.Tier {
			return out[i].ev.Record.Tier < out[j].ev.Record.Tier
		}
		return out[i].addr < out[j].addr
	})
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-top: ")
	var (
		addrs   = flag.String("addr", "localhost:9000", "comma-separated aggregator/relay addresses to observe")
		refresh = flag.Duration("refresh", time.Second, "dashboard redraw interval")
		plain   = flag.Bool("plain", false, "force plain per-event log lines (automatic when stdout is not a terminal)")
	)
	flag.Parse()

	targets := strings.Split(*addrs, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tty := !*plain && stdoutIsTTY()
	b := &board{feeds: make(map[string]*feed)}

	var wg sync.WaitGroup
	for _, addr := range targets {
		if addr == "" {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			watch(ctx, b, addr, !tty)
		}(addr)
	}

	if tty {
		ticker := time.NewTicker(*refresh)
		defer ticker.Stop()
		fmt.Print("\x1b[2J") // clear once; redraws repaint from home
		for {
			select {
			case <-ctx.Done():
				fmt.Print("\x1b[0m\n")
				wg.Wait()
				return
			case <-ticker.C:
				fmt.Print(render(b.snapshot()))
			}
		}
	}
	wg.Wait()
}

// watch keeps one observer subscription alive: dial, observe, and on a lost
// session back off and redial until ctx ends or the fleet shuts down.
func watch(ctx context.Context, b *board, addr string, plain bool) {
	backoff := time.Second
	for ctx.Err() == nil {
		conn, err := link.DialContext(ctx, addr)
		if err != nil {
			f := b.get(addr)
			b.mu.Lock()
			f.connected, f.lastErr = false, err.Error()
			b.mu.Unlock()
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 30*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Second
		f := b.get(addr)
		b.mu.Lock()
		f.connected, f.lastErr = true, ""
		b.mu.Unlock()
		err = fed.Observe(ctx, conn, func(ev fed.ObserveEvent) {
			b.mu.Lock()
			f.prevAt, f.lastAt = f.lastAt, time.Now()
			f.ev = ev
			f.rounds++
			f.connected = true
			b.mu.Unlock()
			if plain {
				fmt.Println(plainLine(addr, ev))
			}
		})
		conn.Close()
		b.mu.Lock()
		f.connected = false
		if err != nil {
			f.lastErr = err.Error()
		}
		b.mu.Unlock()
		if err == nil || errors.Is(err, context.Canceled) {
			return // clean shutdown from the aggregator, or our own exit
		}
	}
}

func stdoutIsTTY() bool {
	fi, err := os.Stdout.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// plainLine formats one event as a pipe-friendly log line.
func plainLine(addr string, ev fed.ObserveEvent) string {
	r := ev.Record
	line := fmt.Sprintf("%s tier%d round %d: clients=%d loss=%.4f", addr, r.Tier, r.Round, r.Clients, r.TrainLoss)
	if r.ModelVersion > 0 {
		line += fmt.Sprintf(" ver=%d buf=%d stale=%.1f", r.ModelVersion, r.BufferFill, r.MeanStaleness)
	}
	if r.Perplexity > 0 {
		line += fmt.Sprintf(" ppl=%.2f", r.Perplexity)
	}
	line += fmt.Sprintf(" wall=%.0fms sent=%s recv=%s", r.WallMs, fmtBytes(r.WireSentBytes), fmtBytes(r.WireRecvBytes))
	if r.CompressionRatio > 0 {
		line += fmt.Sprintf(" ratio=%.2f", r.CompressionRatio)
	}
	if r.ModelVersion == 0 {
		// Sync rounds: how many members were sent a delta, not the full model.
		line += fmt.Sprintf(" delta=%d", r.DeltaBroadcasts)
	}
	if r.SlowestID != "" {
		line += fmt.Sprintf(" slowest=%s/%s", r.SlowestID, r.SlowestPhase)
	}
	if r.TraceID != 0 {
		line += fmt.Sprintf(" trace=%x", r.TraceID)
	}
	return line
}

// render paints the whole dashboard into one string (single write avoids
// flicker) starting from the cursor-home position.
func render(feeds []feed) string {
	var sb strings.Builder
	sb.WriteString("\x1b[H")
	now := time.Now()
	fmt.Fprintf(&sb, "\x1b[1mphoton-top\x1b[0m  %s  (%d feeds)\x1b[K\n\n", now.Format("15:04:05"), len(feeds))
	for _, f := range feeds {
		renderFeed(&sb, f, now)
	}
	sb.WriteString("\x1b[J") // clear anything stale below
	return sb.String()
}

func renderFeed(sb *strings.Builder, f feed, now time.Time) {
	r := f.ev.Record
	status := "\x1b[32mlive\x1b[0m"
	if !f.connected {
		status = "\x1b[31mdown\x1b[0m"
		if f.lastErr != "" {
			status += " (" + f.lastErr + ")"
		}
	}
	tierName := fmt.Sprintf("tier %d", r.Tier)
	if f.rounds == 0 {
		fmt.Fprintf(sb, "\x1b[1m%s\x1b[0m  %s — waiting for first round\x1b[K\n\n", f.addr, status)
		return
	}
	fmt.Fprintf(sb, "\x1b[1m%s\x1b[0m  %s  %s  round %d (%d seen, %.0fs ago)\x1b[K\n",
		f.addr, tierName, status, r.Round, f.rounds, now.Sub(f.lastAt).Seconds())

	line := fmt.Sprintf("  clients=%d loss=%.4f", r.Clients, r.TrainLoss)
	if r.ModelVersion > 0 {
		line += fmt.Sprintf(" ver=%d buf=%d stale=%.1f", r.ModelVersion, r.BufferFill, r.MeanStaleness)
	}
	if r.Perplexity > 0 {
		line += fmt.Sprintf(" ppl=%.2f", r.Perplexity)
	}
	if !f.prevAt.IsZero() {
		if dt := f.lastAt.Sub(f.prevAt).Seconds(); dt > 0 {
			line += fmt.Sprintf(" wire=%s/s↑ %s/s↓",
				fmtBytes(int64(float64(r.WireSentBytes)/dt)), fmtBytes(int64(float64(r.WireRecvBytes)/dt)))
		}
	}
	if r.CompressionRatio > 0 {
		line += fmt.Sprintf(" ratio=%.2f", r.CompressionRatio)
	}
	if r.ModelVersion == 0 {
		line += fmt.Sprintf(" delta=%d", r.DeltaBroadcasts)
	}
	if r.HeartbeatRTTMs > 0 {
		line += fmt.Sprintf(" rtt=%.1f/%.1fms(p99)", r.HeartbeatRTTMs, r.HeartbeatRTTP99Ms)
	}
	if r.Joins > 0 || r.Evictions > 0 || r.Stragglers > 0 {
		line += fmt.Sprintf(" churn=+%d/-%d/s%d", r.Joins, r.Evictions, r.Stragglers)
	}
	fmt.Fprintf(sb, "%s\x1b[K\n", line)

	fmt.Fprintf(sb, "  wall %7.0fms  %s", r.WallMs, phaseBar(f.ev, 40))
	if r.SlowestID != "" {
		fmt.Fprintf(sb, "  slowest=%s/%s", r.SlowestID, r.SlowestPhase)
	}
	if r.TraceID != 0 {
		fmt.Fprintf(sb, "  trace=%x", r.TraceID)
	}
	sb.WriteString("\x1b[K\n")

	if len(f.ev.Members) > 0 {
		// Async feeds (a committed model version present) carry per-member
		// version lag; show it as a staleness column.
		asyncFeed := r.ModelVersion > 0
		fmt.Fprintf(sb, "  members:\x1b[K\n")
		for _, m := range f.ev.Members {
			marker := "\x1b[32m●\x1b[0m"
			switch {
			case m.Health < 0.5:
				marker = "\x1b[31m○\x1b[0m"
			case m.Health < 0.9:
				marker = "\x1b[33m◐\x1b[0m"
			}
			memberLine := fmt.Sprintf("    %s %-20s health=%.2f rtt=%6.1fms straggles=%d",
				marker, m.ID, m.Health, m.RTTMs, m.Straggles)
			if asyncFeed {
				memberLine += fmt.Sprintf(" stale=%d", m.Staleness)
			}
			fmt.Fprintf(sb, "%s\x1b[K\n", memberLine)
		}
	}
	sb.WriteString("\x1b[K\n")
}

// phaseBar renders the round's phase breakdown as a fixed-width bar, one
// letter per phase (Broadcast, Train, Encode, Wire, Decode, Aggregate,
// eVal), each segment sized by its share of the round.
func phaseBar(ev fed.ObserveEvent, width int) string {
	b := ev.Record.Phases
	phases := []struct {
		ch string
		ms float64
	}{
		{"B", b.BroadcastMs}, {"T", b.TrainMs}, {"E", b.EncodeMs},
		{"W", b.WireMs}, {"D", b.DecodeMs}, {"A", b.AggregateMs}, {"V", b.EvalMs},
	}
	total := 0.0
	for _, p := range phases {
		total += p.ms
	}
	if total <= 0 {
		return "[" + strings.Repeat(" ", width) + "]"
	}
	var sb strings.Builder
	sb.WriteString("[")
	used := 0
	for _, p := range phases {
		n := int(p.ms / total * float64(width))
		if p.ms > 0 && n == 0 {
			n = 1 // every nonzero phase gets at least one cell
		}
		if used+n > width {
			n = width - used
		}
		sb.WriteString(strings.Repeat(p.ch, n))
		used += n
	}
	sb.WriteString(strings.Repeat(" ", width-used))
	sb.WriteString("]")
	return sb.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
