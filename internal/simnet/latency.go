package simnet

import (
	"math"
	"math/rand"
	"time"

	"github.com/moara/moara/internal/ids"
)

// Fixed returns a latency model with a constant one-way delay.
func Fixed(d time.Duration) LatencyModel { return fixedModel(d) }

type fixedModel time.Duration

func (m fixedModel) Latency(_, _ ids.ID, _ time.Duration, _ *rand.Rand) time.Duration {
	return time.Duration(m)
}

// MinLatency reports the constant delay as its own lower bound.
func (m fixedModel) MinLatency() time.Duration { return time.Duration(m) }

// Uniform returns a model drawing one-way delays uniformly from
// [min, max).
func Uniform(min, max time.Duration) LatencyModel {
	return &uniformModel{min: min, max: max}
}

type uniformModel struct {
	min, max time.Duration
}

func (m *uniformModel) Latency(_, _ ids.ID, _ time.Duration, rng *rand.Rand) time.Duration {
	if m.max <= m.min {
		return m.min
	}
	return m.min + time.Duration(rng.Int63n(int64(m.max-m.min)))
}

// MinLatency reports the lower edge of the draw interval.
func (m *uniformModel) MinLatency() time.Duration { return m.min }

// LANConfig parameterizes the Emulab-style local-network model: a
// switched 100 Mbps LAN where wire latency is small and roughly uniform.
type LANConfig struct {
	// Base is the minimum one-way wire delay (default 100µs).
	Base time.Duration
	// Jitter is the uniform extra delay bound (default 400µs).
	Jitter time.Duration
}

// LAN builds the local-network latency model used for the Emulab
// experiments (Figs. 12–13).
func LAN(cfg LANConfig) LatencyModel {
	if cfg.Base == 0 {
		cfg.Base = 100 * time.Microsecond
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 400 * time.Microsecond
	}
	return &lanModel{cfg: cfg}
}

type lanModel struct {
	cfg LANConfig
}

func (m *lanModel) Latency(_, _ ids.ID, _ time.Duration, rng *rand.Rand) time.Duration {
	return m.cfg.Base + time.Duration(rng.Int63n(int64(m.cfg.Jitter)))
}

// MinLatency reports the base wire delay (jitter only adds).
func (m *lanModel) MinLatency() time.Duration { return m.cfg.Base }

// WANConfig parameterizes the PlanetLab-style wide-area model. Each
// unordered node pair gets a stable base RTT drawn from a lognormal
// body; additionally a configurable fraction of NODES are stragglers
// (overloaded or badly connected hosts) that add a heavy-tailed delay
// to every path touching them. Slow nodes — rather than slow pairs —
// are what make group-scoped querying beat centralized aggregation in
// the paper's Figs. 14-16: a group query only pays for stragglers in
// (or near) the group.
type WANConfig struct {
	// MedianRTT is the median pairwise round-trip time (default 120ms).
	MedianRTT time.Duration
	// Sigma is the lognormal shape parameter (default 0.6).
	Sigma float64
	// StragglerFrac is the fraction of straggler nodes (default 0.04).
	StragglerFrac float64
	// StragglerScale is the minimum extra RTT a straggler adds
	// (default 800ms).
	StragglerScale time.Duration
	// StragglerAlpha is the Pareto tail index of straggler delays
	// (default 1.1; smaller means heavier tail).
	StragglerAlpha float64
	// StragglerCap bounds a straggler's extra RTT (default 30s).
	StragglerCap time.Duration
	// StragglerDuty is the fraction of time a straggler is actually
	// slow (default 0.3): PlanetLab stragglers are intermittently
	// overloaded, not constantly. Set to 1 for always-slow nodes.
	StragglerDuty float64
	// StragglerWindow is the duty-cycle granularity (default 30s).
	StragglerWindow time.Duration
	// JitterFrac adds per-message uniform jitter of ±JitterFrac of the
	// base one-way latency (default 0.1).
	JitterFrac float64
	// Seed makes the pairwise bases reproducible.
	Seed int64
}

// WAN builds the wide-area latency model.
func WAN(cfg WANConfig) *WANModel {
	if cfg.MedianRTT == 0 {
		cfg.MedianRTT = 120 * time.Millisecond
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 0.6
	}
	if cfg.StragglerFrac == 0 {
		cfg.StragglerFrac = 0.04
	}
	if cfg.StragglerScale == 0 {
		cfg.StragglerScale = 800 * time.Millisecond
	}
	if cfg.StragglerAlpha == 0 {
		cfg.StragglerAlpha = 1.1
	}
	if cfg.StragglerCap == 0 {
		cfg.StragglerCap = 30 * time.Second
	}
	if cfg.StragglerDuty == 0 {
		cfg.StragglerDuty = 0.3
	}
	if cfg.StragglerWindow == 0 {
		cfg.StragglerWindow = 30 * time.Second
	}
	if cfg.JitterFrac == 0 {
		cfg.JitterFrac = 0.1
	}
	return &WANModel{cfg: cfg}
}

// WANModel implements LatencyModel with stable per-pair RTTs, so offline
// analyses (Fig. 16's bottleneck-link study) can interrogate BaseRTT.
type WANModel struct {
	cfg WANConfig
}

var _ LatencyModel = (*WANModel)(nil)

// pairKey builds an order-independent 64-bit key for a node pair.
func pairKey(a, b ids.ID) uint64 {
	ka, kb := a.Seed(), b.Seed()
	if ka > kb {
		ka, kb = kb, ka
	}
	return mix(ka, kb)
}

// StragglerDelay returns the extra RTT the node would add to paths
// through it during a slow window (zero for healthy nodes; the peak
// value regardless of when).
func (m *WANModel) StragglerDelay(a ids.ID) time.Duration {
	rng := splitmix{key: a.Seed() ^ 0x5bf03635 ^ uint64(m.cfg.Seed)}
	if rng.float() >= m.cfg.StragglerFrac {
		return 0
	}
	u := max(rng.float(), 1e-6)
	mult := math.Pow(u, -1.0/m.cfg.StragglerAlpha)
	d := time.Duration(float64(m.cfg.StragglerScale) * mult)
	if d > m.cfg.StragglerCap {
		d = m.cfg.StragglerCap
	}
	return d
}

// stragglerAt returns the node's extra RTT at time now, applying the
// duty cycle: a straggler is slow only during a deterministic fraction
// of its StragglerWindow-sized time slots.
func (m *WANModel) stragglerAt(a ids.ID, now time.Duration) time.Duration {
	d := m.StragglerDelay(a)
	if d == 0 || m.cfg.StragglerDuty >= 1 {
		return d
	}
	window := uint64(now / m.cfg.StragglerWindow)
	h := mix(a.Seed()^uint64(m.cfg.Seed), window)
	if float64(h%1000)/1000 < m.cfg.StragglerDuty {
		return d
	}
	return 0
}

// BaseRTT returns the stable fair-weather round-trip time assigned to
// the pair (the lognormal body, no straggler penalties).
func (m *WANModel) BaseRTT(a, b ids.ID) time.Duration {
	if a == b {
		return 0
	}
	rng := splitmix{key: pairKey(a, b) ^ uint64(m.cfg.Seed)}
	rtt := float64(m.cfg.MedianRTT) * math.Exp(m.cfg.Sigma*rng.norm())
	if rtt < float64(2*time.Millisecond) {
		rtt = float64(2 * time.Millisecond)
	}
	return time.Duration(rtt)
}

// RTTAt returns the pair's round-trip time at time now, including any
// active straggler penalties on either endpoint.
func (m *WANModel) RTTAt(a, b ids.ID, now time.Duration) time.Duration {
	if a == b {
		return 0
	}
	return m.BaseRTT(a, b) + m.stragglerAt(a, now) + m.stragglerAt(b, now)
}

// Latency returns one half of the pair's current RTT plus per-message
// jitter.
func (m *WANModel) Latency(from, to ids.ID, now time.Duration, rng *rand.Rand) time.Duration {
	oneWay := m.RTTAt(from, to, now) / 2
	if oneWay <= 0 {
		return 0
	}
	jit := int64(float64(oneWay) * m.cfg.JitterFrac)
	if jit <= 0 {
		return oneWay
	}
	return oneWay - time.Duration(jit/2) + time.Duration(rng.Int63n(jit))
}

// MinLatency reports a conservative one-way floor: half the 2ms RTT
// clamp, less the largest possible downward jitter excursion.
func (m *WANModel) MinLatency() time.Duration {
	floor := float64(time.Millisecond)
	return time.Duration(floor * (1 - m.cfg.JitterFrac/2))
}

// mix is the splitmix64 finalizer over a ^ b·φ, the package's one hash:
// WAN pair keys, straggler duty cycles and every splitmix stream derive
// from it.
func mix(a, b uint64) uint64 {
	x := a ^ b*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// splitmix is a 16-byte counter-based rand.Source64: draw i of the
// stream keyed k is mix(k, i). A node's latency stream is one, in place
// of math/rand's 4.9 KB source, and the WAN model draws its per-pair
// and per-node values from one on the stack.
type splitmix struct{ key, ctr uint64 }

func (s *splitmix) Uint64() uint64 {
	s.ctr++
	return mix(s.key, s.ctr)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Seed(seed int64) { *s = splitmix{key: uint64(seed)} }

// float returns a uniform draw from [0, 1).
func (s *splitmix) float() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// norm returns a standard normal draw (Box–Muller).
func (s *splitmix) norm() float64 {
	return math.Sqrt(-2*math.Log(1-s.float())) * math.Cos(2*math.Pi*s.float())
}
