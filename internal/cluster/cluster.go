// Package cluster is Photon's elastic membership and fault-tolerance
// control plane. It tracks which LLM clients are part of a federation run
// right now — members join, leave, are evicted on failure, and may rejoin
// later under the same identity — and scores each member's health from
// heartbeat liveness and observed round behavior so the aggregator can
// sample cohorts away from flaky or chronically slow clients.
//
// The registry is deliberately transport-agnostic: it stores identities and
// statistics, never connections. The networked aggregator (internal/fed)
// keeps its own ID→connection map and drives the registry from its accept
// loop, per-member readers, and round collector.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"photon/internal/obsv"
)

// State is a member's lifecycle position.
type State int

// Member lifecycle states.
const (
	// StateAlive means the member is connected and eligible for sampling.
	StateAlive State = iota
	// StateEvicted means the registry removed the member after an I/O
	// failure or missed heartbeats. An evicted identity may rejoin.
	StateEvicted
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// RoundOutcome classifies a member's behavior in one federated round.
type RoundOutcome int

// Round outcomes observed by the aggregator.
const (
	// OutcomeOK: the member returned its update in time.
	OutcomeOK RoundOutcome = iota
	// OutcomeStraggler: the member missed the round deadline; its update
	// (if it ever arrives) is discarded, but the member stays alive.
	OutcomeStraggler
	// OutcomeFailed: the member's connection broke during the round.
	OutcomeFailed
)

// Health-score EWMA parameters: each observation moves the score 20% of the
// way toward its target, so ~3 consecutive straggles halve a member's
// sampling weight while one bad round is quickly forgiven.
const (
	healthAlpha     = 0.2
	healthOK        = 1.0
	healthStraggler = 0.25
	healthFailed    = 0.0
	rejoinPenalty   = 0.7 // multiplier applied when an identity rejoins
	healthFloor     = 0.05
)

// Config configures a Registry.
type Config struct {
	// HeartbeatInterval is the expected beat cadence. Zero disables
	// liveness expiry entirely (ExpireDead never evicts).
	HeartbeatInterval time.Duration
	// MissedBeats is how many intervals without a heartbeat mark a member
	// dead (default 3).
	MissedBeats int
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
}

// member is the registry's internal record. All fields are guarded by the
// registry mutex; snapshots escape only as Info values.
type member struct {
	id       string
	index    int // join order, for deterministic iteration
	state    State
	joinedAt time.Time
	lastBeat time.Time

	health     float64
	rttEWMA    time.Duration // heartbeat round-trip EWMA
	latEWMA    time.Duration // observed round latency EWMA
	rounds     int           // rounds the member returned an update for
	straggles  int
	failures   int
	rejoins    int
	evictedFor string
}

// Info is a race-free snapshot of one member.
type Info struct {
	ID           string
	Index        int // join order (stable across rejoins)
	State        State
	Health       float64 // (0,1]; 1 = perfectly reliable
	HeartbeatRTT time.Duration
	RoundLatency time.Duration
	Rounds       int // rounds with a delivered update
	Straggles    int
	Failures     int
	Rejoins      int
	EvictedFor   string // reason, when State == StateEvicted
}

// Stats counts membership churn over a resettable window (RoundDelta) the
// aggregator drains once per round.
type Stats struct {
	Joins      int // first-time joins
	Rejoins    int // previously-seen identities that came back
	Evictions  int
	Stragglers int // cohort slots dropped at a round deadline

	// HeartbeatRTTMs is the mean heartbeat round-trip observed in the
	// window, in milliseconds (0 when no beats were observed).
	HeartbeatRTTMs float64
	// HeartbeatRTTP99Ms is the 99th-percentile round-trip over a small
	// fixed-size sketch of the most recent beats (0 when none observed).
	// The mean hides tail latency entirely — one slow member per window
	// barely moves it — so the p99 is what surfaces network stragglers.
	HeartbeatRTTP99Ms float64
}

func (s *Stats) add(o Stats, beats int, rttSum time.Duration) {
	s.Joins += o.Joins
	s.Rejoins += o.Rejoins
	s.Evictions += o.Evictions
	s.Stragglers += o.Stragglers
	if beats > 0 {
		// Keep sub-millisecond precision: localhost RTTs are microseconds.
		s.HeartbeatRTTMs = float64(rttSum) / float64(beats) / float64(time.Millisecond)
	}
}

// rttSketchSize is how many of the most recent beats the p99 is read over.
const rttSketchSize = obsv.RingSize

// p99Ms reads a beat ring's 99th percentile in milliseconds.
func p99Ms(r *obsv.Ring) float64 {
	return float64(r.Percentile(99)) / float64(time.Millisecond)
}

// Registry tracks federation membership. All methods are safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member
	nextIdx int

	window    Stats
	winBeats  int
	winRTTSum time.Duration
	winRTT    obsv.Ring
}

// New builds a registry. The zero Config is valid: no liveness expiry, the
// wall clock, and 3 missed beats once an interval is set.
func New(cfg Config) *Registry {
	if cfg.MissedBeats <= 0 {
		cfg.MissedBeats = 3
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Registry{cfg: cfg, members: make(map[string]*member)}
}

// Join registers id as alive and returns whether this identity was seen
// before (a rejoin). Joining an already-alive identity is also a rejoin:
// the caller is expected to have displaced the stale connection.
func (r *Registry) Join(id string) (rejoined bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.cfg.Clock()
	m, ok := r.members[id]
	if !ok {
		r.members[id] = &member{
			id: id, index: r.nextIdx, state: StateAlive,
			joinedAt: now, lastBeat: now, health: healthOK,
		}
		r.nextIdx++
		r.window.Joins++
		return false
	}
	m.state = StateAlive
	m.joinedAt = now
	m.lastBeat = now
	m.rejoins++
	m.evictedFor = ""
	m.health = math.Max(healthFloor, m.health*rejoinPenalty)
	r.window.Rejoins++
	return true
}

// Evict removes id from the alive set with a reason, returning whether the
// member was alive. The identity may rejoin later.
func (r *Registry) Evict(id, reason string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictLocked(id, reason)
}

func (r *Registry) evictLocked(id, reason string) bool {
	m, ok := r.members[id]
	if !ok || m.state != StateAlive {
		return false
	}
	m.state = StateEvicted
	m.evictedFor = reason
	m.failures++
	m.health = math.Max(healthFloor, m.health+healthAlpha*(healthFailed-m.health))
	r.window.Evictions++
	return true
}

// Heartbeat records a beat (and its round-trip time, 0 if unknown) for id,
// returning whether the member is currently alive.
func (r *Registry) Heartbeat(id string, rtt time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.state != StateAlive {
		return false
	}
	m.lastBeat = r.cfg.Clock()
	if rtt > 0 {
		if m.rttEWMA == 0 {
			m.rttEWMA = rtt
		} else {
			m.rttEWMA += time.Duration(healthAlpha * float64(rtt-m.rttEWMA))
		}
		r.winBeats++
		r.winRTTSum += rtt
		r.winRTT.Add(rtt)
	}
	return true
}

// ObserveRound feeds one member's round behavior into its health score and
// latency EWMA. Stragglers are also counted in the round window.
func (r *Registry) ObserveRound(id string, latency time.Duration, outcome RoundOutcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok {
		return
	}
	target := healthOK
	switch outcome {
	case OutcomeOK:
		m.rounds++
		m.lastBeat = r.cfg.Clock() // a delivered update is proof of life
	case OutcomeStraggler:
		target = healthStraggler
		m.straggles++
		r.window.Stragglers++
	case OutcomeFailed:
		target = healthFailed
		m.failures++
	}
	m.health = math.Max(healthFloor, m.health+healthAlpha*(target-m.health))
	if latency > 0 {
		if m.latEWMA == 0 {
			m.latEWMA = latency
		} else {
			m.latEWMA += time.Duration(healthAlpha * float64(latency-m.latEWMA))
		}
	}
}

// ExpireDead evicts every alive member whose last heartbeat is older than
// MissedBeats×HeartbeatInterval and returns their IDs. It is a no-op when
// the registry has no heartbeat interval configured.
func (r *Registry) ExpireDead() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.HeartbeatInterval <= 0 {
		return nil
	}
	cutoff := r.cfg.Clock().Add(-time.Duration(r.cfg.MissedBeats) * r.cfg.HeartbeatInterval)
	var dead []string
	for _, m := range r.sortedLocked() {
		if m.state == StateAlive && m.lastBeat.Before(cutoff) {
			dead = append(dead, m.id)
		}
	}
	for _, id := range dead {
		r.evictLocked(id, "missed heartbeats")
	}
	return dead
}

// Alive returns snapshots of the alive members in join order.
func (r *Registry) Alive() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Info
	for _, m := range r.sortedLocked() {
		if m.state == StateAlive {
			out = append(out, r.infoLocked(m))
		}
	}
	return out
}

// AliveCount returns the number of alive members.
func (r *Registry) AliveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.members {
		if m.state == StateAlive {
			n++
		}
	}
	return n
}

// Get returns a snapshot of id's record.
func (r *Registry) Get(id string) (Info, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok {
		return Info{}, false
	}
	return r.infoLocked(m), true
}

// Admissible reports whether id is alive with a health score at or above
// floor. The async aggregator gates buffer admission on it: health scoring
// feeds not just cohort sampling but also whether an arriving update is
// folded at all, so a member that has been repeatedly failing cannot keep
// steering the global model while its score recovers. floor <= 0 admits
// every alive member.
func (r *Registry) Admissible(id string, floor float64) bool {
	info, ok := r.Get(id)
	if !ok || info.State != StateAlive {
		return false
	}
	return floor <= 0 || info.Health >= floor
}

// SampleCohort draws a round cohort of up to ceil(k·(1+overProvision))
// alive members, health-weighted and without replacement (Efraimidis–
// Spirakis exponential keys), so chronically slow or flaky members are
// sampled less while never being starved outright. The draw consumes rng
// deterministically: the same registry state and rng state produce the same
// cohort.
func (r *Registry) SampleCohort(rng *rand.Rand, k int, overProvision float64) []Info {
	alive := r.Alive()
	if k <= 0 || k > len(alive) {
		k = len(alive)
	}
	n := k
	if overProvision > 0 {
		n = int(math.Ceil(float64(k) * (1 + overProvision)))
		if n > len(alive) {
			n = len(alive)
		}
	}
	type keyed struct {
		info Info
		key  float64
	}
	ks := make([]keyed, len(alive))
	for i, m := range alive {
		w := m.Health
		if w < healthFloor {
			w = healthFloor
		}
		// Larger key ⇔ more likely to be picked; key = u^(1/w).
		ks[i] = keyed{info: m, key: math.Pow(rng.Float64(), 1/w)}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key > ks[j].key })
	out := make([]Info, 0, n)
	for _, kk := range ks[:n] {
		out = append(out, kk.info)
	}
	// Return the cohort in join order so downstream iteration is stable.
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// RoundDelta returns the churn observed since the previous RoundDelta call
// and resets the window. The aggregator calls it once per round to stamp
// the round record.
func (r *Registry) RoundDelta() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out Stats
	out.add(r.window, r.winBeats, r.winRTTSum)
	out.HeartbeatRTTP99Ms = p99Ms(&r.winRTT)
	r.window = Stats{}
	r.winBeats, r.winRTTSum = 0, 0
	r.winRTT.Reset()
	return out
}

func (r *Registry) infoLocked(m *member) Info {
	return Info{
		ID: m.id, Index: m.index, State: m.state, Health: m.health,
		HeartbeatRTT: m.rttEWMA, RoundLatency: m.latEWMA,
		Rounds: m.rounds, Straggles: m.straggles, Failures: m.failures,
		Rejoins: m.rejoins, EvictedFor: m.evictedFor,
	}
}

func (r *Registry) sortedLocked() []*member {
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}
